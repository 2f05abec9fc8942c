package queue

import (
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/workflow"
)

// TestAFWRandomizedFIFONoLostJobs drives an AFW queue with randomized
// interleavings of pushes, peeks and batched takes and checks the queue's
// core contracts against a reference model: jobs leave in exactly the
// order they arrived (FIFO), every pushed job is taken exactly once
// (nothing lost, nothing duplicated), and Peek never consumes.
func TestAFWRandomizedFIFONoLostJobs(t *testing.T) {
	app := workflow.Chain("prop", profile.Deblur)
	src := rng.New(0xF1F0)
	for trial := 0; trial < 60; trial++ {
		q := NewAFW(0, 0, app, 0)
		var model []*Job // reference: jobs still queued, arrival order
		var taken []*Job // jobs handed out, in hand-out order
		pushed := 0
		now := time.Duration(0)

		steps := 20 + src.IntN(60)
		for i := 0; i < steps; i++ {
			now += time.Duration(src.IntN(5)) * time.Millisecond
			switch src.IntN(3) {
			case 0, 1: // push 1–3 jobs
				n := 1 + src.IntN(3)
				for j := 0; j < n; j++ {
					inst := NewInstance(pushed, 0, app, now, time.Second)
					job := &Job{Instance: inst, Stage: 0, EnqueuedAt: now}
					q.Push(job)
					model = append(model, job)
					pushed++
				}
			case 2: // take a random feasible batch
				if q.Len() == 0 {
					if !q.Empty() || q.Oldest() != nil {
						t.Fatalf("trial %d: empty queue disagrees with Len", trial)
					}
					continue
				}
				n := 1 + src.IntN(q.Len())
				got := q.Take(n)
				taken = append(taken, got...)
				model = model[n:]
			}

			if q.Len() != len(model) {
				t.Fatalf("trial %d step %d: Len=%d, model has %d", trial, i, q.Len(), len(model))
			}
			if len(model) > 0 {
				// Peek must mirror the model prefix without consuming.
				k := 1 + src.IntN(len(model))
				peek := q.Peek(k)
				for j := range peek {
					if peek[j] != model[j] {
						t.Fatalf("trial %d step %d: Peek[%d] out of order", trial, i, j)
					}
				}
				if q.Len() != len(model) {
					t.Fatalf("trial %d step %d: Peek consumed jobs", trial, i)
				}
				if q.Oldest() != model[0] {
					t.Fatalf("trial %d step %d: Oldest is not the head", trial, i)
				}
				if w := q.OldestWait(now); w != model[0].Waited(now) {
					t.Fatalf("trial %d step %d: OldestWait=%v, head waited %v", trial, i, w, model[0].Waited(now))
				}
			}
		}

		// Drain and check the global FIFO ordering over instance IDs,
		// which were assigned in push order.
		taken = append(taken, q.Take(q.Len())...)
		if len(taken) != pushed {
			t.Fatalf("trial %d: pushed %d jobs, got %d back", trial, pushed, len(taken))
		}
		for i, j := range taken {
			if j.Instance.ID != i {
				t.Fatalf("trial %d: position %d holds job %d (FIFO violated or job duplicated)", trial, i, j.Instance.ID)
			}
		}
	}
}

// TestAFWMinSLORemainingRandomized cross-checks MinSLORemaining against a
// direct scan: it must equal the tightest (SLO - elapsed) among queued
// jobs, with random per-instance SLOs and arrival times.
func TestAFWMinSLORemainingRandomized(t *testing.T) {
	app := workflow.Chain("prop", profile.Deblur)
	src := rng.New(0xBEEF)
	for trial := 0; trial < 40; trial++ {
		q := NewAFW(0, 0, app, 0)
		var jobs []*Job
		now := time.Duration(0)
		for i := 0; i < 1+src.IntN(20); i++ {
			now += time.Duration(src.IntN(10)) * time.Millisecond
			slo := time.Duration(50+src.IntN(400)) * time.Millisecond
			inst := NewInstance(i, 0, app, now, slo)
			job := &Job{Instance: inst, Stage: 0, EnqueuedAt: now}
			q.Push(job)
			jobs = append(jobs, job)
		}
		now += time.Duration(src.IntN(100)) * time.Millisecond
		want := time.Duration(1<<63 - 1)
		for _, j := range jobs {
			if rem := j.Instance.SLO - j.Instance.Elapsed(now); rem < want {
				want = rem
			}
		}
		if got := q.MinSLORemaining(now); got != want {
			t.Fatalf("trial %d: MinSLORemaining=%v, scan says %v", trial, got, want)
		}
	}
}

// TestAFWOldestElapsedRandomized cross-checks OldestElapsed, which reads
// the queue's arrival deque, against a direct scan of the queued jobs after
// every push and take. Arrivals come out of order (requeued and successor
// jobs carry older instances), some lie ahead of the clock, and the queues
// run deep enough for both the job ring and the deque to compact.
func TestAFWOldestElapsedRandomized(t *testing.T) {
	app := workflow.Chain("prop", profile.Deblur)
	src := rng.New(0x01DE57)
	scan := func(jobs []*Job, now time.Duration) time.Duration {
		var want time.Duration
		for _, j := range jobs {
			want = max(want, j.Instance.Elapsed(now))
		}
		return want
	}
	compactions := 0
	for trial := 0; trial < 40; trial++ {
		q := NewAFW(0, 0, app, 0)
		var model []*Job
		now := time.Duration(0)
		target := 8 + src.IntN(150) // queue depth the trial drifts around
		for step := 0; step < 600; step++ {
			now += time.Duration(src.IntN(3)) * time.Millisecond
			if src.IntN(2*target) >= len(model) {
				arrival := now
				switch src.IntN(4) {
				case 0: // an older instance: a requeue or a successor stage
					arrival -= time.Duration(src.IntN(200)) * time.Millisecond
				case 1: // ahead of the clock: elapsed clamps at 0
					arrival += time.Duration(src.IntN(3)) * time.Millisecond
				}
				job := &Job{Instance: NewInstance(step, 0, app, arrival, time.Second), EnqueuedAt: now}
				q.Push(job)
				model = append(model, job)
			} else if len(model) > 0 {
				n := 1 + src.IntN(min(len(model), 12))
				before := q.arrHead
				q.Take(n)
				model = model[n:]
				if q.arrHead < before && q.Len() > 0 {
					compactions++
				}
			}
			for _, at := range []time.Duration{now, now + time.Duration(src.IntN(500))*time.Millisecond} {
				if got, want := q.OldestElapsed(at), scan(model, at); got != want {
					t.Fatalf("trial %d step %d: OldestElapsed(%v)=%v, scan says %v", trial, step, at, got, want)
				}
			}
		}
	}
	t.Logf("%d arrival-deque compactions", compactions)
	if compactions == 0 {
		t.Fatalf("no trial compacted the arrival deque; deepen the queues")
	}
}

// TestSetRoutingRandomized pushes random jobs through a Set over a
// multi-stage app and checks that no queue ever holds a job of another
// stage and that TotalPending never loses a job.
func TestSetRoutingRandomized(t *testing.T) {
	apps := []*workflow.App{
		workflow.Chain("a", profile.Deblur, profile.Segmentation, profile.Classification),
		workflow.Chain("b", profile.SuperResolution, profile.DepthRecognition),
	}
	s := NewSet(apps)
	src := rng.New(0xAB5E7)
	pending := 0
	for i := 0; i < 300; i++ {
		ai := src.IntN(len(apps))
		st := src.IntN(apps[ai].Len())
		q := s.Get(ai, st)
		if q.AppIndex != ai || q.Stage != st {
			t.Fatalf("Get(%d,%d) returned queue for (%d,%d)", ai, st, q.AppIndex, q.Stage)
		}
		inst := NewInstance(i, ai, apps[ai], 0, time.Second)
		q.Push(&Job{Instance: inst, Stage: st})
		pending++
		if src.IntN(4) == 0 && q.Len() > 0 {
			n := 1 + src.IntN(q.Len())
			pending -= len(q.Take(n))
		}
		if s.TotalPending() != pending {
			t.Fatalf("step %d: TotalPending=%d, model says %d", i, s.TotalPending(), pending)
		}
	}
	for _, q := range s.Queues {
		for _, j := range q.Peek(q.Len()) {
			if j.Stage != q.Stage || j.Instance.AppIndex != q.AppIndex {
				t.Fatalf("queue (%d,%d) holds a job of (%d,%d)", q.AppIndex, q.Stage, j.Instance.AppIndex, j.Stage)
			}
		}
	}
}
