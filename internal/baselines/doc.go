// Package baselines hosts the shared machinery of the paper's four
// comparison schedulers (§4.2) and the two extension baselines, whose
// implementations live in the subpackages infless, fastgshare, orion,
// aquatope, gswarm and hasgpu. The package itself provides Ranker, the one
// Plan step of the ranking baselines (INFless, FaST-GShare, HAS-GPU), and
// its plan-memo layer: the per-(app, stage, quantized batch bound)
// candidate-ranking cache. It also provides Ladder, the allocation-free
// Plan step Orion, Aquatope and GSwarm share for their pre-planned
// configurations.
//
// Invariants (the PR 3 plan-cache contract, applied to the baselines):
//
//   - Memoized candidate lists are read-only and capacity-frozen: the
//     slice returned by Memo.Lookup/Store is shared with every past and
//     future caller of the same key, so appending copies and writing
//     elements in place is a bug. Memo.CheckMutations/Integrity enforce
//     this in tests, exactly like core.PlanCache.
//   - Rankings are content-deterministic: the comparators of INFless,
//     FaST-GShare and HAS-GPU are total orders over estimate content, so a
//     memoized list is byte-identical to what the un-memoized path would
//     produce — reuse can never change an artifact.
//   - Reuse is invalidation-free: a key's ranking is a pure function of
//     the profile tables (immutable once the oracle builds them) and the
//     static mean-service SLO split, so entries never go stale within a
//     run. The key deliberately omits fleet state and the clock — the
//     baselines' Plan step is fleet-independent by design (placement reads
//     the live cluster index in Place), which is what lets the same entry
//     answer across re-plan quanta without any snapshot check.
//   - The key space is bounded by apps × stages × (batch options + 1), a
//     few hundred entries at production scale, so the memo needs no LRU.
//
// A Memo usually belongs to one scheduler instance and one emulation run.
// A planet grid shares one Memo between the cells of a scheduler, which the
// parallel experiment runner may run at once, so the memo locks its map.
package baselines
