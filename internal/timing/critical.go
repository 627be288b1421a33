package timing

import (
	"math"
	"slices"
	"sort"

	"rotaryclk/internal/netlist"
)

// CriticalPath is one near-critical sequential pair together with the nets
// its maximum-delay combinational path crosses, in launch-to-capture order.
type CriticalPath struct {
	Pair  Pair
	Slack float64 // ps, as reported by the caller's slack function
	Nets  []int   // indices into Circuit.Nets along the D_max path
}

// SlackUnder returns the slack of pair p when its launching flip-flop leads
// its capturing one by skew x = t_i - t_j at period T: the distance of x
// from the nearer edge of the permissible range (negative when outside it).
// The smaller of the two distances is the binding constraint — setup at the
// high edge, hold at the low edge.
func (m Model) SlackUnder(p Pair, x, T float64) float64 {
	lo, hi := m.PermissibleRange(p, T, 0)
	return math.Min(x-lo, hi-x)
}

// ExtractCritical runs Analyze's propagation and returns the k lowest-slack
// pairs under slackOf, each carrying the net trail of its maximum-delay
// path. Results are ordered most critical first; ties break on (From, To)
// so the selection is deterministic. Like Analyze it errors on a
// combinational cycle.
//
// slackOf maps a pair to its criticality under the caller's current skew
// schedule (see Model.SlackUnder); smaller is more critical.
func ExtractCritical(c *netlist.Circuit, m Model, slackOf func(Pair) float64, k int) ([]CriticalPath, error) {
	if k <= 0 {
		return nil, nil
	}
	var paths []CriticalPath
	err := propagate(c, m, func(cn *cone, src, v int, dMax, dMin float64) {
		p := Pair{From: src, To: v, DMax: dMax, DMin: dMin}
		paths = append(paths, CriticalPath{Pair: p, Slack: slackOf(p), Nets: cn.trail(v)})
	})
	if err != nil {
		return nil, err
	}

	sort.Slice(paths, func(a, b int) bool {
		if paths[a].Slack != paths[b].Slack {
			return paths[a].Slack < paths[b].Slack
		}
		if paths[a].Pair.From != paths[b].Pair.From {
			return paths[a].Pair.From < paths[b].Pair.From
		}
		return paths[a].Pair.To < paths[b].Pair.To
	})
	if len(paths) > k {
		paths = paths[:k]
	}
	return paths, nil
}

// trail returns the nets the D_max path from the source to capture point v
// crosses, in launch-to-capture order; v == src names the self-loop path.
func (k *cone) trail(v int) []int {
	var nets []int
	if v == k.src {
		nets = append(nets, int(k.selfNet))
		v = int(k.selfU)
	}
	for u := v; u != k.src; u = int(k.predU[u]) {
		nets = append(nets, int(k.predNet[u]))
	}
	slices.Reverse(nets)
	return nets
}
