package main

// -selfcheck N: run the whole untraced suite N times with the same seed and
// print, per workload and end-to-end metric, the median, min, max and the
// range (max-min)/median over the N values. A range beyond the metric's bound
// fails the check: two sets of runs of the same code must agree within the
// bound the benchmark gates on.

import (
	"fmt"
	"os"
)

func runSelfcheck(cfg config, n int) int {
	cfg.trace = false
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	for i := 0; i < n; i++ {
		fmt.Printf("### selfcheck run %d of %d\n", i+1, n)
		for _, w := range workloadDefs {
			res, err := runChild(cfg, w.Name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
		}
	}
	fmt.Printf("\n| workload | metric | unit | median | min | max | range/median | bound | ok |\n")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	code := 0
	for _, w := range workloadDefs {
		for _, d := range endToEndDefs {
			s := sorted(values[w.Name][d.Name])
			lo, hi, med := s[0], s[len(s)-1], median(s)
			ok := "yes"
			if (hi-lo)/med > d.Bound {
				ok = "NO"
				code = 1
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %.4g | %.1f%% | %.0f%% | %s |\n",
				w.Name, d.Name, d.Unit, med, lo, hi, 100*(hi-lo)/med, 100*d.Bound, ok)
		}
	}
	return code
}
