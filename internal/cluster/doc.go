// Package cluster models the invoker fleet of the emulated serverless
// platform (§4: 16 nodes, each with 16 vCPUs and one A100 GPU partitioned
// into 7 MIG vGPUs): per-node resource ledgers, container lifecycle with
// cold/warm starts and the OpenWhisk 10-minute keep-alive, the
// data-locality transfer model, and the incrementally maintained fleet
// indexes the placement policies run on.
//
// Invariants:
//
//   - Timestamps are non-decreasing or we panic. Simulated time never
//     runs backwards, and the package enforces it instead of tolerating
//     it: Invoker.integrate panics on a regressed timestamp (a silent
//     skip would under-count the utilization integrals) and
//     expiryRing.push panics on a regressed deadline. Monotone deadlines
//     are what make the ring head the earliest expiry, turning warm-pool
//     pruning into amortized O(1) head pops.
//   - Function identity is interned. Cluster.Intern assigns dense FnID
//     handles; every container API is FnID-keyed and per-function state
//     lives in flat slices — no string hashing on the scheduling path.
//     An unresolved handle (cluster.NoFn) panics rather than aliasing
//     function 0.
//   - The fleetIndex is redundant state, continuously reconcilable: the
//     capacity bucket grid, the warm and warming bitsets, and the busy,
//     warming and idle-warm totals (warmTotal) can be rebuilt from a full
//     fleet scan at any point and must equal the incrementally maintained
//     values exactly (fuzzed in index_test.go, on fleets of one to four
//     bitset words). The earliest-deadline bound warmNext is the one
//     inexact field: it may sit below the earliest ring front, never
//     above, so the rebuild compares it with ≤. A map-and-scan reference
//     fleet must agree with every observable at every step (ref_test.go).
//   - Warm-start semantics are fixed: a warm start consumes the oldest
//     live container (ring head), pools prune with the exp > now
//     boundary, and warm-presence reconciliation is lazy — exactly the
//     semantics of the scan implementation the rings replaced.
package cluster
