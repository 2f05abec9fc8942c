// Package core implements the ESG scheduler: the ESG_1Q configuration
// search (A* over stage-sequence configuration paths with dual-blade
// cost/time pruning, §3.3 and Appendix B), the dominator-distribution
// glue that turns an AFW queue into a group search, the locality-aware
// dispatch hooks, and the memoized PlanCache that makes re-planning
// cheap at production scale.
//
// Invariants the rest of the repository relies on:
//
//   - Cached plans are read-only and capacity-frozen. A SearchResult
//     returned by PlanCache.Search is shared between the cache and
//     every past and future caller the entry answers; both slice levels
//     are capacity-capped so appends copy, and CheckMutations/Integrity
//     detect in-place writes in tests. The same holds for the candidate
//     list the cache derives once per search: ESG.Plan returns it as
//     sched.Plan.Candidates to every plan the entry answers, so a write
//     through one plan's candidates would change every later plan.
//   - Search ties are content-deterministic. The kept top-K paths are
//     ordered by pathLess (cost, then time, then configurations), never
//     by arrival or heap-pop order, so the A* search and the reference
//     engines agree byte for byte, and every cache answer — from an
//     entry's feasibility interval or from a cold search — is the
//     paths of a fresh search at the same quantized input. Randomized
//     equivalence tests and FuzzPlanCache pin this.
//   - Quantization is conservative. Queue depths quantize exactly
//     (every depth in a bucket admits identical config lists); GSLO
//     targets floor to their bucket, so a reused plan is always at
//     least as tight as the target it answers.
//   - The search lists are K-dominance pruned, exactly. Search drops from
//     each stage's admitted list every configuration that at least K
//     others in the list beat (no slower, and earlier in (JobCost, Time,
//     Config) order, pathLess's single-stage order): swapping one in for
//     it keeps any path feasible and makes it strictly pathLess-smaller,
//     so a path through a pruned configuration has K better ones and is
//     never in the top-K. The prune ignores GSLO and the hop. The drain
//     fallback picks by per-job time, not cost, so it reads the
//     unpruned admitted lists. BruteForceSearch and the tests' level-wise
//     sweep (SearchLevelwise) stay unpruned as independent references, and
//     the randomized oracle tests compare whole paths.
//   - The A* cost-to-go is time-aware and cannot change plans. A partial
//     path is priced at its cost, plus each middle stage's cheapest
//     config, plus the cheapest last-stage config that still fits what
//     GSLO leaves once the hops and the middle stages run at their
//     fastest (costToGo). The bound is admissible and exact when one
//     stage remains, so a path costing at most the final K-th cost keeps
//     every prefix at or under the cost blade's threshold and is still
//     generated, and pathLess keeps the same top K. Only the pop order,
//     and with it Expanded, depends on the bound. refSearch, a frozen copy
//     of the search with the time-agnostic bound, and the exhaustive
//     oracle pin this in tests, FuzzSearch among them.
//   - The over-constrained fallback is shared and panic-free: when no
//     configuration passes the admissibility filter under the batch
//     bound, Search, BruteForceSearch and the tests' SearchLevelwise all
//     degrade through the same overConstrainedFallback (filter first,
//     batch bound relaxed second), so ablations and the oracle agree.
package core
