package aquatope

import (
	"reflect"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/profile"
)

// TestWaitingLookupTrainsQueuedKeys holds the first queued key's training
// on a draining goroutine and looks that key up: the lookup must train the
// other queued keys itself before it waits, return the held key's
// configurations once released, and count its one miss.
func TestWaitingLookupTrainsQueuedKeys(t *testing.T) {
	m := NewTrainingMemo()
	started, release := make(chan struct{}), make(chan struct{})
	cfgsOf := func(batch int) []profile.Config { return []profile.Config{{Batch: batch}} }
	m.enqueue("a", func() []profile.Config {
		close(started)
		<-release
		return cfgsOf(1)
	})
	m.enqueue("b", func() []profile.Config { return cfgsOf(2) })
	m.enqueue("c", func() []profile.Config { return cfgsOf(3) })

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		m.RunQueued() // claims "a" and holds it until release
	}()
	<-started
	got := make(chan []profile.Config, 1)
	go func() { got <- m.cfgs("a") }()

	// Only the lookup can train "b" and "c" while "a" is held.
	for _, key := range []string{"b", "c"} {
		m.mu.Lock()
		e := m.entries[key]
		m.mu.Unlock()
		select {
		case <-e.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("a lookup waiting on a held key left %q untrained", key)
		}
		if want := cfgsOf(int(key[0]-'a') + 1); !reflect.DeepEqual(e.cfgs, want) {
			t.Errorf("%q trained %v, want %v", key, e.cfgs, want)
		}
	}
	close(release)
	if cfgs := <-got; !reflect.DeepEqual(cfgs, cfgsOf(1)) {
		t.Errorf("lookup of the held key = %v, want %v", cfgs, cfgsOf(1))
	}
	<-drained
	if st := m.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("memo stats = %+v, want 0 hits and 1 miss", st)
	}
	if len(m.queue) != 0 {
		t.Errorf("%d entries left queued", len(m.queue))
	}
	for key, e := range m.entries {
		if e.train != nil {
			t.Errorf("%q still holds its training closure", key)
		}
	}
}
