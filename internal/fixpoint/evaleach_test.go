package fixpoint

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestEvalEachContract pins the contract of evalEach, which fans a round's
// equations out across workers: every index runs exactly once, the error
// reported is the lowest failing index's (what a serial sweep reports), and
// Parallelism 0, 1 and values beyond the number of equations all behave.
func TestEvalEachContract(t *testing.T) {
	const n = 7
	for _, par := range []int{0, 1, 2, 4, n, 3 * n} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			o := Options{Parallelism: par}
			var runs [n]atomic.Int32
			if err := o.evalEach(n, func(i int) error {
				runs[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("index %d ran %d times, want 1", i, got)
				}
			}

			// Index 5 fails first in time whenever the indices run
			// concurrently: index 2 waits for it before failing itself.
			failed5 := make(chan struct{})
			err := o.evalEach(n, func(i int) error {
				switch i {
				case 2:
					if par > 1 {
						select {
						case <-failed5:
						case <-time.After(5 * time.Second):
							t.Error("index 5 never ran while index 2 was running")
						}
					}
					return fmt.Errorf("equation %d failed", i)
				case 5:
					close(failed5)
					return fmt.Errorf("equation %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "equation 2 failed" {
				t.Errorf("error = %v, want index 2's", err)
			}

			if err := o.evalEach(0, func(i int) error {
				t.Errorf("index %d ran over an empty system", i)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
