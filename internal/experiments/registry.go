package experiments

import "fmt"

// Runner describes one reproducible exhibit.
type Runner struct {
	// ID is the paper label, e.g. "table3" or "figure8".
	ID string
	// Title is the exhibit caption.
	Title string
	// plan lists the exhibit's work points and returns the render over
	// their results.
	plan func(Setup) ([]Point, func([]Result) fmt.Stringer)
}

// Run executes the experiment and returns its printable result.
func (r Runner) Run(s Setup) fmt.Stringer { return run(s, r.plan) }

// exhibit registers a typed plan as a Runner.
func exhibit[T fmt.Stringer](id, title string, plan func(Setup) ([]Point, func([]Result) T)) Runner {
	return Runner{ID: id, Title: title, plan: func(s Setup) ([]Point, func([]Result) fmt.Stringer) {
		points, render := plan(s)
		return points, func(rs []Result) fmt.Stringer { return render(rs) }
	}}
}

// All returns every exhibit runner in paper order.
func All() []Runner {
	return []Runner{
		exhibit("table1", "Measurements of on-chip and off-chip components of CPI", planTable1),
		exhibit("figure2", "Clustering of misses", planFigure2),
		exhibit("table3", "MLPsim vs cycle-accurate simulator", planTable3),
		exhibit("table4", "Estimated vs measured CPI", planTable4),
		exhibit("table5", "MLP of in-order issue", planTable5),
		exhibit("figure4", "Impact of ROB size and issuing constraints", planFigure4),
		exhibit("figure5", "Factors inhibiting further MLP", planFigure5),
		exhibit("figure6", "Impact of decoupling issue window and ROB sizes", planFigure6),
		exhibit("figure7", "Impact of L2 cache size", planFigure7),
		exhibit("figure8", "Impact of runahead execution", planFigure8),
		exhibit("table6", "Value predictor statistics", planTable6),
		exhibit("figure9", "Impact of value prediction", planFigure9),
		exhibit("figure10", "Limit study", planFigure10),
		exhibit("figure11", "Overall performance improvement", planFigure11),
		exhibit("ext-mshr", "Extension: MLP vs MSHR count", planExtMSHR),
		exhibit("ext-prefetch", "Extension: hardware prefetching (§5.6 direction)", planExtPrefetch),
		exhibit("ext-storemlp", "Extension: store MLP / finite store buffers (§7)", planExtStoreMLP),
		exhibit("ext-storesets", "Extension: store-set memory dependence speculation (Chrysos-Emer)", planExtStoreSets),
		exhibit("ext-smt", "Extension: multithreaded MLP (§7)", planExtSMT),
		exhibit("ext-smtsched", "Extension: MLP-aware SMT fetch scheduling (policies inside the bounds)", planExtSMTSched),
		exhibit("ext-bandwidth", "Extension: finite memory bandwidth (queueing model, §4.1)", planExtBandwidth),
		exhibit("stability", "Multi-seed stability (error bars for every exhibit)", planStability),
		exhibit("compare", "Paper vs measured: headline numbers side by side", planCompare),
	}
}

// Find returns the runner with the given ID, or nil.
func Find(id string) *Runner {
	all := All()
	for i := range all {
		if all[i].ID == id {
			return &all[i]
		}
	}
	return nil
}
