# Runs a deterministic report binary and fails if its output drifted from
# the checked-in golden. The sweeps behind these reports are seeded and
# merge their per-loop results in index order, so any diff is a real
# behavior change (a loop moving off II-gap 0, losing a certified gap, a
# new validation failure, ...). Usage:
#   cmake -DBIN=<binary> -DGOLDEN_FILE=<golden> -DWORK_DIR=<dir>
#         -P check_golden.cmake
# Regenerate a golden intentionally with: ./build/bench/<binary> > <golden>

if(NOT BIN OR NOT GOLDEN_FILE OR NOT WORK_DIR)
  message(FATAL_ERROR "check_golden.cmake needs BIN, GOLDEN_FILE, WORK_DIR")
endif()

get_filename_component(NAME ${BIN} NAME)
set(ACTUAL "${WORK_DIR}/${NAME}_actual.txt")
execute_process(
  COMMAND ${BIN}
  OUTPUT_FILE ${ACTUAL}
  RESULT_VARIABLE RUN_RC)
if(NOT RUN_RC EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with ${RUN_RC} (validation failure?)")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN_FILE} ${ACTUAL}
  RESULT_VARIABLE DIFF_RC)
if(NOT DIFF_RC EQUAL 0)
  execute_process(COMMAND diff -u ${GOLDEN_FILE} ${ACTUAL})
  message(FATAL_ERROR
    "${NAME} report drifted from ${GOLDEN_FILE} -- if the change is "
    "intended (e.g. a scheduler improvement), regenerate the golden and "
    "justify the diff in the PR")
endif()
