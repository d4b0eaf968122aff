package morphs

import (
	"tako/internal/sched"
	"tako/internal/system"
)

// runAllVariants fans one study's variants across the run window's
// workers — every variant is an independent deterministic simulation — then
// assembles the map and submits run records in declared variant order,
// so tables, goldens, and bench reports are byte-identical at any -j.
func runAllVariants[V ~string](variants []V, run func(V) (Result, error)) (map[V]Result, error) {
	results, err := sched.MapResults(system.Workers(), len(variants), func(i int) (Result, error) {
		return run(variants[i])
	})
	if err != nil {
		return nil, err
	}
	submitResults(results...)
	out := make(map[V]Result, len(variants))
	for i, v := range variants {
		out[v] = results[i]
	}
	return out, nil
}
