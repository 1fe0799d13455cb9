package experiments

import (
	"fmt"
	"sync"
)

// Sharded sweeps.
//
// An exhibit's plan is a pure function of (exhibit, seed, warmup,
// measure), so the tuple plus a point index addresses one unit of work
// on any replica. Peer replicas exploit that: a coordinator never
// serializes points over the wire — it sends only (exhibit, indices),
// and the peer plans the same exhibit and executes just those points.
// Results are bit-identical by the simulators' determinism, so shard
// placement is purely a scheduling decision.
//
//   - Coordinator: ShardedBy(router) makes the executor ask the router
//     which replica owns each point, fetch remote shards while the local
//     shard runs, and fall back to local execution for any shard a peer
//     cannot answer. The merged results are indistinguishable from a
//     solo run.
//   - Executor: RunExhibitShard plans the exhibit and executes only the
//     requested points — no earlier work is replayed.
//
// A peer executing a shard never re-shards (RunExhibitShard drops the
// router), so requests cannot recurse through the fleet.

// ShardRouter decides point placement for a sharded sweep and fetches
// remotely-owned results. Implementations (the daemon's peer registry)
// must be safe for concurrent use.
type ShardRouter interface {
	// Owner returns the id of the replica owning point `index` of the
	// current exhibit's plan, or "" when this replica owns it itself.
	Owner(index int) string
	// Fetch retrieves the results for the given point indices of a plan
	// of planLen points from the owning replica, in request order. An
	// error makes the coordinator run those points locally instead;
	// implementations must reject a peer whose plan length differs.
	Fetch(owner string, planLen int, indices []int) ([]Result, error)
}

// ShardedBy returns a copy of s whose exhibit runs are sharded through r.
func (s Setup) ShardedBy(r ShardRouter) Setup {
	s.shard = r
	return s
}

// executeSharded splits the points by ownership: the local shard (plus
// anything the router declines) runs through the normal executor while
// remote shards are fetched concurrently. Points carrying an OnEpoch
// callback never offload — funcs do not travel, and the caller's
// collector must observe the epochs.
func (s Setup) executeSharded(points []Point, results []Result) {
	var local []int
	remote := make(map[string][]int)
	var owners []string
	for i, p := range points {
		owner := ""
		if p.Engine.OnEpoch == nil {
			owner = s.shard.Owner(i)
		}
		if owner == "" {
			local = append(local, i)
			continue
		}
		if _, seen := remote[owner]; !seen {
			owners = append(owners, owner)
		}
		remote[owner] = append(remote[owner], i)
	}

	// Fetch remote shards while the local shard computes. A peer that
	// errors or answers with results that do not fit the points hands
	// its indices back for local execution after the barrier — the
	// sweep always completes.
	fallback := make([][]int, len(owners))
	var wg sync.WaitGroup
	for oi, owner := range owners {
		wg.Add(1)
		go func(oi int, owner string, idxs []int) {
			defer wg.Done()
			rs, err := s.shard.Fetch(owner, len(points), idxs)
			if err != nil || len(rs) != len(idxs) {
				fallback[oi] = idxs
				return
			}
			for k, i := range idxs {
				if !fits(points[i], rs[k]) {
					fallback[oi] = idxs
					return
				}
			}
			for k, i := range idxs {
				results[i] = rs[k]
			}
		}(oi, owner, remote[owner])
	}
	s.executeLocal(points, local, results)
	wg.Wait()
	var retry []int
	for _, idxs := range fallback {
		retry = append(retry, idxs...)
	}
	s.executeLocal(points, retry, results)
}

// fits reports whether a fetched result has the shape its point's
// render indexes, so a peer running a diverged plan degrades to local
// execution instead of a crash.
func fits(p Point, r Result) bool {
	switch p.Kind {
	case CycleGang:
		return len(r.Cycle) == len(p.Cycle)
	case MissDistance:
		return len(r.DistanceCDF) == len(missDistanceProbes)
	case SMTRun:
		k := len(p.SMT.Threads)
		return len(r.SMT.PerThread) == k && len(r.SMT.SoloMissRate) == k && len(r.SMT.SharedMissRate) == k
	case SMTSchedule:
		return len(r.Sched) == len(p.Policies)
	}
	return true
}

// RunExhibitShard executes only the requested point indices of the
// named exhibit's plan, returning their results in request order plus
// the plan's total point count (the coordinator cross-validates it
// against its own plan). Errors are returned for unknown exhibits, an
// out-of-range index, and cancelled contexts — the coordinator falls
// back to local execution on any of them.
func RunExhibitShard(s Setup, name string, indices []int) ([]Result, int, error) {
	runner := Find(name)
	if runner == nil {
		return nil, 0, fmt.Errorf("experiments: unknown exhibit %q", name)
	}
	points, _ := runner.plan(s)
	sub := make([]Point, len(indices))
	for k, i := range indices {
		if i < 0 || i >= len(points) {
			return nil, len(points), fmt.Errorf("experiments: point index %d out of range (plan has %d points)",
				i, len(points))
		}
		sub[k] = points[i]
	}
	s.shard = nil
	results := s.execute(sub)
	if err := s.Context().Err(); err != nil {
		return nil, len(points), err
	}
	return results, len(points), nil
}
