package fleet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"air/internal/campaign"
)

var errScripted = errors.New("scripted failure")

// failingService passes every call through to its coordinator, except the
// first n calls of one method, which fail with errScripted.
type failingService struct {
	*Coordinator
	method string
	n      int
	calls  int
}

// fail consumes one call of method and reports whether it is scripted to
// fail.
func (s *failingService) fail(method string) error {
	if method != s.method {
		return nil
	}
	s.calls++
	if s.calls <= s.n {
		return errScripted
	}
	return nil
}

func (s *failingService) Acquire(worker string) (Lease, AcquireState, error) {
	if err := s.fail("Acquire"); err != nil {
		return Lease{}, Wait, err
	}
	return s.Coordinator.Acquire(worker)
}

func (s *failingService) Spec(campaignID string) (campaign.Spec, error) {
	if err := s.fail("Spec"); err != nil {
		return campaign.Spec{}, err
	}
	return s.Coordinator.Spec(campaignID)
}

func (s *failingService) Complete(worker string, l Lease, sh *campaign.Shard) error {
	if err := s.fail("Complete"); err != nil {
		return err
	}
	return s.Coordinator.Complete(worker, l, sh)
}

// TestWorkRetryBudgets pins Work's own retry budgets: a run of failures as
// long as the budget is ridden out and the lease completes; one failure
// more ends the loop with the failure, without a further call.
func TestWorkRetryBudgets(t *testing.T) {
	for _, tc := range []struct {
		method string
		budget int
	}{
		{"Acquire", acquireRetries},
		{"Spec", acquireRetries},
		{"Complete", completeRetries},
	} {
		for _, n := range []int{tc.budget, tc.budget + 1} {
			t.Run(fmt.Sprintf("%s/fail=%d", tc.method, n), func(t *testing.T) {
				c, err := New(Options{LeaseSize: 4})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				id, err := c.Submit(testSpec(4))
				if err != nil {
					t.Fatal(err)
				}
				svc := &failingService{Coordinator: c, method: tc.method, n: n}
				done, err := Work(svc, WorkerOptions{ID: "w", Workers: 1, Poll: time.Millisecond})
				st, perr := c.Progress(id)
				if perr != nil {
					t.Fatal(perr)
				}
				if n == tc.budget {
					if err != nil || done != 1 || !st.Done {
						t.Fatalf("within budget: done=%d err=%v campaign done=%v", done, err, st.Done)
					}
					return
				}
				if !errors.Is(err, errScripted) || done != 0 || st.Done {
					t.Fatalf("past budget: done=%d err=%v campaign done=%v, want the scripted error", done, err, st.Done)
				}
				if svc.calls != n {
					t.Fatalf("%d %s calls, want %d: the loop kept trying past its budget", svc.calls, tc.method, n)
				}
			})
		}
	}
}

// scriptedService answers Acquire from a script of states, then Drained.
type scriptedService struct {
	Service
	states []AcquireState
}

func (s *scriptedService) Acquire(string) (Lease, AcquireState, error) {
	if len(s.states) == 0 {
		return Lease{}, Drained, nil
	}
	st := s.states[0]
	s.states = s.states[1:]
	return Lease{}, st, nil
}

// TestWorkWaitBacksOffFromOneMillisecond: after a Wait the worker re-polls
// within milliseconds, not after a whole Poll, so a lease freed by another
// shard's completion is taken up at once. Poll only caps the back-off.
func TestWorkWaitBacksOffFromOneMillisecond(t *testing.T) {
	svc := &scriptedService{states: []AcquireState{Wait, Wait, Drained}}
	start := time.Now()
	n, err := Work(svc, WorkerOptions{ID: "w", Workers: 1, Poll: time.Second})
	if took := time.Since(start); err != nil || n != 0 || took > 300*time.Millisecond {
		t.Fatalf("Work = %d, %v after %v; want a drained return within milliseconds of two Waits", n, err, took)
	}
}
