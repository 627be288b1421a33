package skew

import (
	"fmt"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// relax is the package's one difference-constraint kernel: Bellman-Ford
// relaxation of t[U] <= t[V] + Bound over cons, starting from the potentials
// in dist and updating them in place. Every round visits all constraints in
// order and lowers t[U] only when it improves by more than Eps; a round that
// lowers nothing ends the call with ok=true. rounds counts the rounds run,
// the final no-change round included.
//
// Each lowering records the constraint as the node's parent. After every
// round that changed something, negCycle walks the parent pointers in O(n),
// and the call stops with ok=false if they close a cycle of k constraints
// whose bounds sum to W < -2(k+1)*Eps, handing back that witness cycle's
// constraint indices in cycle: at a no-change round every constraint holds
// to within Eps, so every k-cycle has W >= -k*Eps, and the plain n+1-round
// loop could never have settled. Shallower cycles are left to the round cap,
// which returns ok=false with a nil cycle. The bookkeeping never writes
// dist, so feasible potentials and their round counts are bit-identical to
// the plain loop's (DESIGN.md section 17).
//
// The stop token is checked once per round; a fired token returns its error
// with the rounds completed so far, and dist is then not a certificate. A
// constraint referencing a variable outside [0,n) panics. The call records
// the skew.probes, skew.rounds, skew.edge_visits and skew.negcycle.early
// counters into reg (nil records nothing).
func relax(tok *stop.Token, reg *obs.Registry, n int, cons []DiffConstraint, dist []float64) (rounds int, ok bool, cycle []int, err error) {
	for _, c := range cons {
		if c.U < 0 || c.U >= n || c.V < 0 || c.V >= n {
			panic(fmt.Sprintf("skew: constraint %+v out of range n=%d", c, n))
		}
	}
	if reg != nil {
		defer func() {
			reg.Add("skew.probes", 1)
			reg.Add("skew.rounds", int64(rounds))
			reg.Add("skew.edge_visits", int64(rounds)*int64(len(cons)))
			if cycle != nil {
				reg.Add("skew.negcycle.early", 1)
			}
		}()
	}
	parent := make([]int, n) // constraint that last lowered each node, -1 if none
	for i := range parent {
		parent[i] = -1
	}
	stamp := make([]int, n) // walk that last visited each node
	walk := 0
	for rounds < n+1 {
		if err := stop.Check(tok, faultinject.SiteSkewIterCancel); err != nil {
			return rounds, false, nil, err
		}
		rounds++
		changed := false
		for i, c := range cons {
			if nd := dist[c.V] + c.Bound; nd < dist[c.U]-Eps {
				dist[c.U] = nd
				parent[c.U] = i
				changed = true
			}
		}
		if !changed {
			return rounds, true, nil, nil
		}
		if walk, cycle = negCycle(cons, parent, stamp, walk); cycle != nil {
			return rounds, false, cycle, nil
		}
	}
	return rounds, false, nil, nil
}

// negCycle walks the parent graph of relax once, each node at most once, and
// returns the constraint indices of the first cycle below the guard
// -2(k+1)*Eps it meets, in parent order, or nil. Walk ids continue from walk,
// so stamps never need clearing; the last id is returned.
func negCycle(cons []DiffConstraint, parent, stamp []int, walk int) (int, []int) {
	first := walk + 1 // ids of this pass are >= first
	for s := range parent {
		if stamp[s] >= first {
			continue
		}
		walk++
		v := s
		for stamp[v] < first {
			stamp[v] = walk
			if parent[v] < 0 {
				break
			}
			v = cons[parent[v]].V
		}
		if stamp[v] != walk || parent[v] < 0 {
			continue // reached a root or a path walked earlier this pass
		}
		w, k := 0.0, 0
		for u := v; ; {
			c := cons[parent[u]]
			w += c.Bound
			k++
			if u = c.V; u == v {
				break
			}
		}
		if w < -2*float64(k+1)*Eps {
			cycle := make([]int, 0, k)
			for u := v; len(cycle) < k; u = cons[parent[u]].V {
				cycle = append(cycle, parent[u])
			}
			return walk, cycle
		}
	}
	return walk, nil
}
