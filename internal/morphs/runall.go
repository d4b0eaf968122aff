package morphs

import (
	"tako/internal/sched"
	"tako/internal/system"
)

// RunResults fans n independent simulations across the run window's
// workers, then submits their run records in index order — exactly the
// records a sequential loop would have produced, in the same order, so
// tables, goldens and bench reports are byte-identical at any -j.
func RunResults(n int, fn func(i int) (Result, error)) ([]Result, error) {
	results, err := sched.MapResults(system.Workers(), n, fn)
	if err != nil {
		return nil, err
	}
	SubmitResults(results...)
	return results, nil
}

// runAllVariants runs one study's variants through RunResults and maps
// each variant to its result.
func runAllVariants[V ~string](variants []V, run func(V) (Result, error)) (map[V]Result, error) {
	results, err := RunResults(len(variants), func(i int) (Result, error) {
		return run(variants[i])
	})
	if err != nil {
		return nil, err
	}
	out := make(map[V]Result, len(variants))
	for i, v := range variants {
		out[v] = results[i]
	}
	return out, nil
}
