package exp

import (
	"tako/internal/morphs"
	"tako/internal/sched"
	"tako/internal/system"
)

// runResults fans n independent simulations across the run window's
// workers, then submits their capture records in index order — exactly
// the records a sequential loop would have produced, in the same order,
// so reports and bench captures are byte-identical at any worker count.
func runResults(n int, fn func(i int) (morphs.Result, error)) ([]morphs.Result, error) {
	results, err := sched.MapResults(system.Workers(), n, fn)
	if err != nil {
		return nil, err
	}
	morphs.SubmitResults(results...)
	return results, nil
}
