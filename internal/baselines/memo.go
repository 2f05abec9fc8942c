package baselines

import (
	"fmt"
	"sync"

	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/sched"
)

// Key identifies one memoized baseline plan: the AFW queue's (app, stage)
// coordinates plus the quantized batch bound of the queue length
// (FunctionTable.QuantizeBatchBound). Every queue length inside a bound
// bucket admits the identical configuration subset, so the ranking — a
// pure function of that subset — recurs exactly. See the package comment
// for why nothing else (fleet state, the clock) belongs in the key.
type Key struct {
	App, Stage int
	// MaxBatch is the quantized queue-length bound; 0 means "unbounded"
	// (the queue holds at least as many jobs as the largest batch option).
	MaxBatch int
}

// Memo is the candidate-ranking cache of the ranking baselines (INFless,
// FaST-GShare, HAS-GPU; see Ranker): one frozen ranked []profile.Config per
// Key, with hit/cold counters surfaced through sched.PlanCacheStats. Entries are
// never invalidated — see the package comment for the contract that makes
// that sound — and the bounded key space makes an eviction policy
// unnecessary.
type Memo struct {
	// mu makes Lookup/Store safe when a planet grid shares one Memo
	// across cells that run at once. Rankings are pure functions of their
	// key, so concurrent fills of one key store identical slices — the
	// lock only keeps the map and counters coherent, it never changes a
	// candidate.
	mu      sync.Mutex
	entries map[Key][]profile.Config
	stats   sched.PlanCacheStats

	disabled bool

	// snapshots holds insertion-time copies when CheckMutations is armed;
	// Integrity compares the live entries against them.
	snapshots map[Key][]profile.Config
}

// NewMemo returns an empty, enabled memo.
func NewMemo() *Memo {
	return &Memo{entries: make(map[Key][]profile.Config)}
}

// Disable turns memoization off: every Lookup misses without counting and
// Store passes candidates through unrecorded, so the scheduler re-ranks on
// every Plan call. The equivalence tests and the esgbench -baselinememo=false
// knob use this as the un-memoized reference path.
func (m *Memo) Disable() { m.disabled = true }

// Lookup returns the frozen ranked candidates memoized for k. The result
// is read-only — hand it to the dispatcher as-is, never write through it.
func (m *Memo) Lookup(k Key) ([]profile.Config, bool) {
	if m.disabled {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if cands, ok := m.entries[k]; ok {
		m.stats.Hits++
		return cands, true
	}
	m.stats.Misses++
	return nil, false
}

// Store freezes cands (capacity-capped, so a caller's append always
// copies), records it for k, and returns the frozen slice the caller must
// use from now on. A nil candidate list (no admissible configuration) is
// memoized too: recomputing it every quantum is exactly the waste the memo
// exists to avoid.
func (m *Memo) Store(k Key, cands []profile.Config) []profile.Config {
	if m.disabled {
		return cands
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cands = cands[:len(cands):len(cands)]
	m.entries[k] = cands
	if m.snapshots != nil {
		m.snapshots[k] = append([]profile.Config(nil), cands...)
	}
	return cands
}

// Len returns the number of memoized rankings.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Stats returns the memo's counters in the shared plan-cache shape: Hits
// are exact-key reuses, Misses are cold rankings. The interval tier does
// not exist here (reuse is already invalidation-free), so IntervalHits
// stays zero.
func (m *Memo) Stats() sched.PlanCacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// CheckMutations arms mutation detection: every ranking stored from now on
// is copied, and Integrity compares the live entries against the copies.
// Tests arm it; production pays nothing.
func (m *Memo) CheckMutations() {
	if m.snapshots == nil {
		m.snapshots = make(map[Key][]profile.Config)
	}
}

// Integrity returns an error naming the first memoized ranking whose live
// storage differs from its insertion-time snapshot — proof that a caller
// wrote through a shared read-only candidate list. It only sees entries
// stored after CheckMutations.
func (m *Memo) Integrity() error {
	for k, snap := range m.snapshots {
		live := m.entries[k]
		if len(live) != len(snap) {
			return fmt.Errorf("baselines: memoized plan for %+v changed length; candidate lists returned by Memo are read-only", k)
		}
		for i := range snap {
			if live[i] != snap[i] {
				return fmt.Errorf("baselines: memoized plan for %+v was mutated by a caller; candidate lists returned by Memo are read-only", k)
			}
		}
	}
	return nil
}

// MemoUser is implemented by schedulers backed by a plan Memo (the ranking
// baselines, through Ranker). The experiment runner uses it to disable
// memoization for A/B equivalence runs without knowing the concrete
// scheduler types.
type MemoUser interface {
	PlanMemo() *Memo
}

// ConfigLess is the shared final tie-break of the baseline ranking
// comparators: lexicographic over (Batch, CPU, GPU). It makes each
// comparator a total order over estimate content, so a ranking is a pure
// function of the candidate set — the property memoized reuse rests on.
// It matches Space.Configs' enumeration order, which stable sorting over
// a latency-ascending table preserves for fully-tied pairs, so adding it
// cannot reorder any existing artifact.
func ConfigLess(a, b profile.Config) bool {
	if a.Batch != b.Batch {
		return a.Batch < b.Batch
	}
	if a.CPU != b.CPU {
		return a.CPU < b.CPU
	}
	return a.GPU < b.GPU
}
