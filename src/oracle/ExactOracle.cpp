#include "oracle/ExactOracle.h"

#include "bounds/Lifetimes.h"
#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "workloads/Suite.h"

#include <algorithm>
#include <map>
#include <ostream>

using namespace lsms;

namespace {

/// Runs both schedulers on one loop. Pure: touches nothing but its
/// arguments, so the sweep can fan out across workers.
OracleCase runOracleCase(const LoopBody &Body, const MachineModel &Machine,
                         const ExactOptions &Exact) {
  const DepGraph Graph(Body, Machine);
  OracleCase Case;
  Case.Name = Body.Name;
  Case.Ops = Body.numMachineOps();

  const Schedule Heur = scheduleLoop(Graph, SchedulerOptions::slack());
  Case.MII = Heur.MII;
  Case.HeurSuccess = Heur.Success;
  Case.HeurEjections = Heur.Stats.Ejections;
  if (Heur.Success) {
    Case.HeurII = Heur.II;
    Case.HeurMaxLive =
        computePressure(Body, Heur.Times, Heur.II, RegClass::RR).MaxLive;
    checkValid(Case.Findings, "heuristic schedule",
               validateSchedule(Graph, Heur));
  }

  const ExactResult Ex = scheduleLoopExact(Graph, Exact);
  Case.Status = Ex.Status;
  Case.Nodes = Ex.NodesExplored;
  if (Ex.Sched.Success) {
    Case.ExactII = Ex.Sched.II;
    Case.ExactMaxLive = Ex.MaxLive;
    Case.MaxLiveProven = Ex.MaxLiveProven;
    Case.Certificate = Ex.Certificate;
    Case.MinAvg = Ex.MinAvgAtII;
    checkValid(Case.Findings,
               std::string("exact (") + exactEngineName(Exact.Engine) +
                   ") schedule",
               validateSchedule(Graph, Ex.Sched));
  }

  finalizeOracleGaps(Case);
  return Case;
}

/// Short certificate spelling for the per-loop table column.
const char *certColumn(MaxLiveCertificate Certificate) {
  switch (Certificate) {
  case MaxLiveCertificate::None:
    return "-";
  case MaxLiveCertificate::MinAvgMet:
    return "minavg";
  case MaxLiveCertificate::BnBExhausted:
    return "bnb";
  case MaxLiveCertificate::SatUnsatBelow:
    return "sat";
  }
  return "?";
}

/// Prints one row per distinct gap value, negative gaps included (a
/// support/Histogram would clamp them into its 0 bucket), with the columns
/// of Histogram::print.
void printGapDistribution(std::ostream &OS, const std::string &Label,
                          const std::vector<double> &Gaps) {
  std::map<long, size_t> Loops;
  for (const double Gap : Gaps)
    ++Loops[static_cast<long>(Gap)];
  TextTable T;
  T.setHeader({Label, "loops", "%", "cum%", ""});
  double Cum = 0;
  for (const auto &[Gap, N] : Loops) {
    const double Pct =
        100.0 * static_cast<double>(N) / static_cast<double>(Gaps.size());
    Cum += Pct;
    T.addRow({std::to_string(Gap), std::to_string(N), formatNumber(Pct, 1),
              formatNumber(std::min(Cum, 100.0), 1),
              std::string(static_cast<size_t>(Pct / 2.0 + 0.5), '#')});
  }
  T.print(OS);
}

} // namespace

void lsms::finalizeOracleGaps(OracleCase &Case) {
  const bool ExactSuccess = Case.Status == ExactStatus::Optimal ||
                            Case.Status == ExactStatus::Feasible;
  Case.IIGapValid = Case.HeurSuccess && ExactSuccess;
  Case.IIGap = Case.IIGapValid ? Case.HeurII - Case.ExactII : 0;
  // Pressure at different IIs is incomparable — MaxLive counts lifetimes
  // folded over II columns, so a larger II changes the quantity itself,
  // not just the schedule. Aggregate the gap only at equal II, and only
  // when both sides actually computed a pressure.
  Case.MaxLiveGapValid = Case.IIGapValid && Case.IIGap == 0 &&
                         Case.HeurMaxLive >= 0 && Case.ExactMaxLive >= 0;
  Case.MaxLiveGap =
      Case.MaxLiveGapValid ? Case.HeurMaxLive - Case.ExactMaxLive : 0;
}

OracleReport lsms::runOracle(const OracleOptions &Options) {
  OracleReport Report;
  Report.Config = Options;

  const std::vector<LoopBody> Suite = buildOracleSuite(
      Options.NumLoops, SweepMinOps, Options.MaxOps, Options.Seed);

  ExactOptions Exact = Options.Exact;
  Exact.MinimizeMaxLive = true;

  // DepGraph keeps a reference to the machine, so it must outlive the loop.
  const MachineModel Machine = MachineModel::cydra5();
  Report.Cases = runSweep(Suite, Options.Jobs, [&](const LoopBody &Body) {
    return runOracleCase(Body, Machine, Exact);
  });

  for (const OracleCase &Case : Report.Cases) {
    const bool ExactSuccess = Case.Status == ExactStatus::Optimal ||
                              Case.Status == ExactStatus::Feasible;
    if (Case.HeurSuccess) {
      ++Report.HeurScheduled;
      if (Case.HeurII == Case.MII)
        ++Report.HeurAtMII;
    }
    if (ExactSuccess) {
      ++Report.ExactScheduled;
      if (Case.Status == ExactStatus::Optimal)
        ++Report.ProvenOptimalII;
      if (Case.ExactII == Case.MII)
        ++Report.ExactAtMII;
    } else if (Case.Status == ExactStatus::Timeout) {
      ++Report.Timeouts;
    }
    if (Case.IIGapValid && Case.IIGap == 0)
      ++Report.HeurAtExactII;
    if (Case.Certificate != MaxLiveCertificate::None) {
      ++Report.MaxLiveCertified;
      if (Case.Certificate == MaxLiveCertificate::MinAvgMet)
        ++Report.CertMinAvg;
      else
        ++Report.CertFamily;
    }
    if (hasFinding(Case.Findings, FindingKind::Validation))
      ++Report.ValidationFailures;
  }
  return Report;
}

void lsms::printOracleReport(std::ostream &OS, const OracleReport &Report) {
  TextTable T;
  T.setHeader({"loop", "ops", "MII", "II slk", "II ex", "status", "dII",
               "ML slk", "ML ex", "MinAvg", "cert", "dML", "ej", "nodes"});
  std::vector<double> IIGapSamples, MaxLiveGapSamples;
  for (const OracleCase &Case : Report.Cases) {
    T.addRow({Case.Name, std::to_string(Case.Ops), std::to_string(Case.MII),
              Case.HeurSuccess ? std::to_string(Case.HeurII) : "-",
              Case.Status == ExactStatus::Optimal ||
                      Case.Status == ExactStatus::Feasible
                  ? std::to_string(Case.ExactII)
                  : "-",
              exactStatusName(Case.Status),
              Case.IIGapValid ? std::to_string(Case.IIGap) : "-",
              Case.HeurMaxLive >= 0 ? std::to_string(Case.HeurMaxLive) : "-",
              Case.ExactMaxLive >= 0 ? std::to_string(Case.ExactMaxLive)
                                     : "-",
              std::to_string(Case.MinAvg), certColumn(Case.Certificate),
              Case.MaxLiveGapValid ? std::to_string(Case.MaxLiveGap) : "-",
              std::to_string(Case.HeurEjections),
              std::to_string(Case.Nodes)});
    if (Case.IIGapValid)
      IIGapSamples.push_back(Case.IIGap);
    if (Case.MaxLiveGapValid)
      MaxLiveGapSamples.push_back(static_cast<double>(Case.MaxLiveGap));
  }
  T.print(OS);

  OS << "\nSummary over " << Report.Cases.size() << " loops (seed "
     << Report.Config.Seed << ", " << SweepMinOps << "-"
     << Report.Config.MaxOps << " ops):\n"
     << "  heuristic scheduled:   " << Report.HeurScheduled << "\n"
     << "  exact scheduled:       " << Report.ExactScheduled << " ("
     << Report.ProvenOptimalII << " with proven-minimal II, "
     << Report.Timeouts << " timeouts)\n"
     << "  heuristic at MII:      " << Report.HeurAtMII << "\n"
     << "  exact minimum at MII:  " << Report.ExactAtMII
     << " (the remainder is bound slack, not heuristic slack)\n"
     << "  heuristic at exact II: " << Report.HeurAtExactII << "\n"
     << "  MaxLive certified:     " << Report.MaxLiveCertified << " ("
     << Report.CertMinAvg << " at the MinAvg bound, " << Report.CertFamily
     << " family-minimal)\n"
     << "  validation failures:   " << Report.ValidationFailures << "\n";

  if (!IIGapSamples.empty()) {
    const QuantileSummary S = summarize(IIGapSamples);
    OS << "\nII gap (heuristic - exact): mean " << formatNumber(S.Mean)
       << ", median " << formatNumber(S.Median) << ", max "
       << formatNumber(S.Max) << "\n";
    printGapDistribution(OS, "II gap", IIGapSamples);
  }
  if (!MaxLiveGapSamples.empty()) {
    const QuantileSummary S = summarize(MaxLiveGapSamples);
    OS << "\nMaxLive gap at equal II (heuristic - exact): mean "
       << formatNumber(S.Mean) << ", median " << formatNumber(S.Median)
       << ", max " << formatNumber(S.Max) << "\n";
    printGapDistribution(OS, "MaxLive gap", MaxLiveGapSamples);
  }
}
