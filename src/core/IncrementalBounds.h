//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental Estart/Lstart upkeep for the slack scheduler (Section 4.1).
///
/// Over the placed set P, every operation x has
///   Estart(x) = max(0, max_{y in P} t_y + MinDist(y,x))
///   Lstart(x) = min(Stop term, min_{y in P} t_y - MinDist(x,y)).
/// Recomputing both for every unplaced operation after each placement
/// costs O(|P| * unplaced) (Section 4.4), which makes one scheduling attempt
/// cubic. This class keeps the two inner aggregates live instead:
///  - place(y,t) folds y's contribution into every aggregate with one row
///    walk (Estart) and one column walk (Lstart) of MinDist: O(N);
///  - eject(y) marks dirty each operation whose aggregate *equals* y's
///    contribution (y is its witness); no other aggregate can change, so
///    this is O(N) too;
///  - settle() recomputes the dirty aggregates over a compact placed list.
///    Dirty aggregates of placed operations (other than Stop) are nobody's
///    input, so they stay dirty until the operation is ejected.
/// publish() then adds the Lstart(Stop) term in O(1) per operation.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_CORE_INCREMENTALBOUNDS_H
#define LSMS_CORE_INCREMENTALBOUNDS_H

#include "graph/MinDist.h"

#include <climits>
#include <vector>

namespace lsms {

class IncrementalBounds {
public:
  /// Lstart of an operation that nothing bounds from above.
  static constexpr long Unbounded = LONG_MAX / 4;

  /// An empty placed set over \p MinDist's operations.
  IncrementalBounds(const MinDistMatrix &MinDist, int StopOp);

  bool isPlaced(int X) const { return Pos[static_cast<size_t>(X)] >= 0; }

  /// Adds unplaced \p Y to the placed set at cycle \p T >= 0.
  void place(int Y, long T);

  /// Removes placed \p Y from the placed set.
  void eject(int Y);

  /// Brings every aggregate that estartStop()/publish() read up to date.
  void settle();

  /// Estart(Stop) over the placed set, Stop itself included when placed;
  /// valid after settle().
  long estartStop() const;

  /// Writes Estart/Lstart of every unplaced operation, with Lstart(Stop)
  /// capped at \p LstartStop; entries of placed operations keep the values
  /// they had when those operations were chosen. Valid after settle().
  void publish(long LstartStop, std::vector<long> &Estart,
               std::vector<long> &Lstart) const;

private:
  enum : unsigned char { EDirty = 1, LDirty = 2 };

  void markDirty(int X, unsigned char Bits);

  const MinDistMatrix &MinDist;
  const int N;
  const int Stop;
  std::vector<long> Time;    ///< placement cycle, meaningful when placed
  std::vector<int> Pos;      ///< index into Placed, -1 when unplaced
  std::vector<int> Placed;   ///< the placed set, in no particular order
  std::vector<long> EMax;    ///< max(0, max t_y + MinDist(y,x)) over Placed
  std::vector<long> LMin;    ///< min(Unbounded, min t_y - MinDist(x,y))
  std::vector<unsigned char> DirtyBits; ///< EDirty|LDirty per operation
  std::vector<int> Dirty;    ///< operations with nonzero DirtyBits
};

} // namespace lsms

#endif // LSMS_CORE_INCREMENTALBOUNDS_H
