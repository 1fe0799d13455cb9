package experiments

// Store-set memory dependence speculation (Chrysos & Emer): the paper's
// MLPsim assumes an oracle memory disambiguator — a load waits exactly
// for the stores it truly depends on. This exhibit brackets that
// assumption: an always-conservative machine (every load waits for every
// earlier store) is the lower bound, the oracle the upper bound, and a
// store-set predictor of swept SSIT/LFST size and confidence threshold
// lands in between, paying recovery flushes for the dependences it
// misses and needless serialization for the ones it invents.

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/storeset"
)

// ExtStoreSetsRow is one (workload, disambiguation mode, predictor
// geometry) measurement. SSIT/LFST/Conf are zero for the oracle and
// conservative bound rows.
type ExtStoreSetsRow struct {
	Workload    string
	Disamb      string
	SSIT        int
	LFST        int
	Conf        int
	MLP         float64
	Mispredicts uint64
	Serializes  uint64
}

// ExtStoreSets is the store-set disambiguation sweep.
type ExtStoreSets struct {
	Rows []ExtStoreSetsRow
}

// ExtStoreSetsSSITs is the swept store-set identifier table axis; the
// LFST is sized at a quarter of the SSIT throughout.
var ExtStoreSetsSSITs = []int{256, 1024, 4096}

// ExtStoreSetsConfs is the swept confidence-threshold axis.
var ExtStoreSetsConfs = []int{0, 2}

// extStoreSetsGrid resolves one grid point to a predictor geometry.
func extStoreSetsGrid(si, ci int) storeset.Config {
	return storeset.Config{
		SSITSize:      ExtStoreSetsSSITs[si],
		LFSTSize:      ExtStoreSetsSSITs[si] / 4,
		ConfThreshold: uint8(ExtStoreSetsConfs[ci]),
	}
}

// RunExtStoreSets executes the sweep. The oracle and conservative bound
// rows run on the first grid point's annotated stream — both ignore the
// Dep column, so their results are bit-identical to plain-annotation
// runs while sharing the stream (and therefore a gang) with the
// store-set points.
func RunExtStoreSets(s Setup) ExtStoreSets { return run(s, planExtStoreSets) }

func planExtStoreSets(s Setup) ([]Point, func([]Result) ExtStoreSets) {
	type job struct {
		mode   core.DisambMode
		si, ci int
	}
	jobs := []job{{core.DisambOracle, 0, 0}, {core.DisambConservative, 0, 0}}
	for si := range ExtStoreSetsSSITs {
		for ci := range ExtStoreSetsConfs {
			jobs = append(jobs, job{core.DisambStoreSets, si, ci})
		}
	}
	var points []Point
	for _, w := range s.Workloads {
		for _, j := range jobs {
			cfg := core.Default()
			cfg.Disamb = j.mode
			points = append(points, Point{Kind: EngineRun, Workload: w, Engine: cfg,
				Annot: annotate.Config{StoreSets: storeset.New(extStoreSetsGrid(j.si, j.ci))}})
		}
	}
	return points, func(rs []Result) ExtStoreSets {
		rows := make([]ExtStoreSetsRow, len(rs))
		for i, p := range points {
			j, res := jobs[i%len(jobs)], &rs[i].Engine
			row := ExtStoreSetsRow{
				Workload:    p.Workload.Name,
				Disamb:      j.mode.String(),
				MLP:         res.MLP(),
				Mispredicts: res.DepMispredicts,
				Serializes:  res.DepSerializes,
			}
			if j.mode == core.DisambStoreSets {
				g := extStoreSetsGrid(j.si, j.ci)
				row.SSIT, row.LFST, row.Conf = g.SSITSize, g.LFSTSize, int(g.ConfThreshold)
			}
			rows[i] = row
		}
		return ExtStoreSets{Rows: rows}
	}
}

// String renders the sweep.
func (e ExtStoreSets) String() string {
	tb := newTable("Extension: Store-Set Memory Dependence Speculation (Chrysos-Emer)")
	tb.row("Workload", "Disamb", "SSIT", "LFST", "Conf", "MLP", "Mispredicts", "Serializes")
	for _, r := range e.Rows {
		ssit, lfst, conf := "-", "-", "-"
		if r.Disamb == core.DisambStoreSets.String() {
			ssit, lfst, conf = itoa(r.SSIT), itoa(r.LFST), itoa(r.Conf)
		}
		tb.rowf("%s\t%s\t%s\t%s\t%s\t%s\t%d\t%d",
			r.Workload, r.Disamb, ssit, lfst, conf, f2(r.MLP), r.Mispredicts, r.Serializes)
	}
	return tb.String()
}
