#include "core/IncrementalBounds.h"

#include <algorithm>
#include <cassert>

using namespace lsms;

// The aggregates need no connectivity test: NoPath is so negative that an
// unconnected pair's t + MinDist stays below 0 (the Estart floor) and its
// t - MinDist stays above Unbounded (the Lstart ceiling), for any t >= 0.
// Such a pair therefore never raises or lowers an aggregate, and never
// equals one, so it is never mistaken for a witness.
static_assert(MinDistMatrix::NoPath + IncrementalBounds::Unbounded < 0,
              "t + NoPath must stay below the Estart floor");

IncrementalBounds::IncrementalBounds(const MinDistMatrix &MinDist, int StopOp)
    : MinDist(MinDist), N(MinDist.numOps()), Stop(StopOp),
      Time(static_cast<size_t>(N), 0), Pos(static_cast<size_t>(N), -1),
      EMax(static_cast<size_t>(N), 0), LMin(static_cast<size_t>(N), Unbounded),
      DirtyBits(static_cast<size_t>(N), 0) {
  Placed.reserve(static_cast<size_t>(N));
  Dirty.reserve(static_cast<size_t>(N));
}

void IncrementalBounds::place(int Y, long T) {
  assert(!isPlaced(Y) && T >= 0 && T < Unbounded);
  Time[static_cast<size_t>(Y)] = T;
  Pos[static_cast<size_t>(Y)] = static_cast<int>(Placed.size());
  Placed.push_back(Y);
  for (int X = 0; X < N; ++X)
    EMax[static_cast<size_t>(X)] =
        std::max(EMax[static_cast<size_t>(X)], T + MinDist.at(Y, X));
  for (int X = 0; X < N; ++X)
    LMin[static_cast<size_t>(X)] =
        std::min(LMin[static_cast<size_t>(X)], T - MinDist.at(X, Y));
}

void IncrementalBounds::eject(int Y) {
  assert(isPlaced(Y));
  const long T = Time[static_cast<size_t>(Y)];
  for (int X = 0; X < N; ++X)
    if (EMax[static_cast<size_t>(X)] == T + MinDist.at(Y, X))
      markDirty(X, EDirty);
  for (int X = 0; X < N; ++X)
    if (LMin[static_cast<size_t>(X)] == T - MinDist.at(X, Y))
      markDirty(X, LDirty);

  // Swap-remove Y from the placed list.
  const int Slot = Pos[static_cast<size_t>(Y)];
  const int Last = Placed.back();
  Placed[static_cast<size_t>(Slot)] = Last;
  Pos[static_cast<size_t>(Last)] = Slot;
  Placed.pop_back();
  Pos[static_cast<size_t>(Y)] = -1;
}

void IncrementalBounds::markDirty(int X, unsigned char Bits) {
  unsigned char &Mask = DirtyBits[static_cast<size_t>(X)];
  if (Mask == 0)
    Dirty.push_back(X);
  Mask |= Bits;
}

void IncrementalBounds::settle() {
  size_t Keep = 0;
  for (const int X : Dirty) {
    if (isPlaced(X) && X != Stop) {
      Dirty[Keep++] = X;
      continue;
    }
    unsigned char &Mask = DirtyBits[static_cast<size_t>(X)];
    if (Mask & EDirty) {
      long E = 0;
      for (const int Y : Placed)
        E = std::max(E, Time[static_cast<size_t>(Y)] + MinDist.at(Y, X));
      EMax[static_cast<size_t>(X)] = E;
    }
    if (Mask & LDirty) {
      long L = Unbounded;
      for (const int Y : Placed)
        L = std::min(L, Time[static_cast<size_t>(Y)] - MinDist.at(X, Y));
      LMin[static_cast<size_t>(X)] = L;
    }
    Mask = 0;
  }
  Dirty.resize(Keep);
}

long IncrementalBounds::estartStop() const {
  assert(!(DirtyBits[static_cast<size_t>(Stop)] & EDirty) && "settle() first");
  return EMax[static_cast<size_t>(Stop)];
}

void IncrementalBounds::publish(long LstartStop, std::vector<long> &Estart,
                                std::vector<long> &Lstart) const {
  const bool StopPlaced = isPlaced(Stop);
  for (int X = 0; X < N; ++X) {
    if (isPlaced(X))
      continue;
    assert(DirtyBits[static_cast<size_t>(X)] == 0 && "settle() first");
    Estart[static_cast<size_t>(X)] = EMax[static_cast<size_t>(X)];
    // A placed Stop already sits in LMin; an unplaced one bounds x through
    // Lstart(Stop) - MinDist(x, Stop).
    long L = LMin[static_cast<size_t>(X)];
    if (X == Stop)
      L = std::min(L, LstartStop);
    else if (!StopPlaced && MinDist.connected(X, Stop))
      L = std::min(L, LstartStop - MinDist.at(X, Stop));
    Lstart[static_cast<size_t>(X)] = L;
  }
}
