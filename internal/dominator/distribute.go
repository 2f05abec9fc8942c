package dominator

import (
	"fmt"

	"github.com/esg-sched/esg/internal/workflow"
)

// DefaultGroupSize is the paper's default maximal function-group size
// (§5.4: "The default maximal group size is set to 3").
const DefaultGroupSize = 3

// Group is one function group produced by the SLO distribution: a run of
// consecutive stages along a path of the DAG, at most the configured group
// size long, never spanning a branch point or join.
type Group struct {
	ID int
	// Stages lists the member stage IDs in execution (path) order.
	Stages []int
	// ANL is the sum of the members' average normalized lengths.
	ANL float64
	// Next lists the IDs of groups that may execute after this one (more
	// than one when the group ends at a branch point).
	Next []int
	// TailANL is ANL plus the maximum TailANL among Next — the normalized
	// length of the longest remaining path starting at this group.
	TailANL float64
	// Quota is the group's static share of the end-to-end SLO (the
	// reverse-reduction assignment of §3.3); shares along the critical
	// path of groups sum to 1.
	Quota float64
}

// Distribution is the result of dominator-based SLO distribution for one
// application.
type Distribution struct {
	App    *workflow.App
	Groups []Group
	// groupOf maps stage ID -> group ID.
	groupOf []int
	// posOf maps stage ID -> index within its group's Stages.
	posOf []int
	anl   []float64
}

// vnode is a node of the reduced dominator tree: either an original stage
// or a reduction-generated node subsuming parallel branches.
type vnode struct {
	stage    int // original stage ID, or -1 for a reduction-generated node
	anl      float64
	next     *vnode
	branches []*vnode // heads of the subsumed branch lists (stage == -1)
}

// Distribute runs the four-step algorithm of §3.3: dominator tree, ANL
// labels, post-order reduction with grouping, and reverse-reduction SLO
// assignment. groupSize bounds the number of stages per group.
func Distribute(app *workflow.App, anl []float64, groupSize int) (*Distribution, error) {
	if groupSize < 1 {
		return nil, fmt.Errorf("dominator: group size must be >= 1, got %d", groupSize)
	}
	if len(anl) != app.Len() {
		return nil, fmt.Errorf("dominator: ANL vector has %d entries for %d stages", len(anl), app.Len())
	}
	tree := BuildTree(app)

	head, err := reduceSubtree(app, tree, anl, app.Entry())
	if err != nil {
		return nil, err
	}

	d := &Distribution{
		App:     app,
		groupOf: make([]int, app.Len()),
		posOf:   make([]int, app.Len()),
		anl:     append([]float64(nil), anl...),
	}
	for i := range d.groupOf {
		d.groupOf[i] = -1
	}
	d.groupList(head, groupSize)
	for s, g := range d.groupOf {
		if g < 0 {
			return nil, fmt.Errorf("dominator: stage %d not assigned to any group", s)
		}
	}
	d.linkGroups()
	d.computeTails()
	d.assignQuotas()
	return d, nil
}

// reduceSubtree post-order processes the dominator subtree rooted at stage s
// and returns the head of the resulting list of vnodes (§3.3's reduce).
func reduceSubtree(app *workflow.App, tree *Tree, anl []float64, s int) (*vnode, error) {
	v := &vnode{stage: s, anl: anl[s]}
	children := tree.Children[s]
	switch len(children) {
	case 0:
		return v, nil
	case 1:
		sub, err := reduceSubtree(app, tree, anl, children[0])
		if err != nil {
			return nil, err
		}
		v.next = sub
		return v, nil
	}

	// Branch point: children split into branch heads (single DAG
	// predecessor) and at most one join continuation (multiple DAG
	// predecessors, where the branches merge).
	var branches []*vnode
	var join *vnode
	for _, c := range children {
		sub, err := reduceSubtree(app, tree, anl, c)
		if err != nil {
			return nil, err
		}
		if len(app.Stage(c).Preds) >= 2 {
			if join != nil {
				return nil, &ErrNotReducible{Stage: s, Reason: "multiple join children under one branch point"}
			}
			join = sub
		} else {
			branches = append(branches, sub)
		}
	}
	if len(branches) == 0 {
		return nil, &ErrNotReducible{Stage: s, Reason: "branch point with no branch children"}
	}
	q := &vnode{stage: -1, branches: branches, next: join}
	for _, b := range branches {
		if sum := listANL(b); sum > q.anl {
			q.anl = sum
		}
	}
	v.next = q
	return v, nil
}

func listANL(head *vnode) float64 {
	var sum float64
	for v := head; v != nil; v = v.next {
		sum += v.anl
	}
	return sum
}

// groupList partitions a vnode list into groups of at most groupSize
// consecutive original stages; reduction-generated nodes break the run and
// recurse into their branches (§3.3's slo_group: reduced nodes stay
// individual so subsumed groups don't bloat).
func (d *Distribution) groupList(head *vnode, groupSize int) {
	var cur *Group
	for v := head; v != nil; v = v.next {
		if v.stage < 0 {
			cur = nil
			for _, b := range v.branches {
				d.groupList(b, groupSize)
			}
			continue
		}
		if cur == nil || len(cur.Stages) >= groupSize {
			d.Groups = append(d.Groups, Group{ID: len(d.Groups)})
			cur = &d.Groups[len(d.Groups)-1]
		}
		d.groupOf[v.stage] = cur.ID
		d.posOf[v.stage] = len(cur.Stages)
		cur.Stages = append(cur.Stages, v.stage)
		cur.ANL += v.anl
	}
}

// linkGroups derives Next edges from the DAG: the groups of the successors
// of each group's last stage... plus, for safety, any successor of a member
// stage that falls outside the group (cannot happen for reducible DAGs, but
// keeps the structure sound if grouping ever changes).
func (d *Distribution) linkGroups() {
	for gi := range d.Groups {
		g := &d.Groups[gi]
		seen := map[int]bool{gi: true}
		for _, s := range g.Stages {
			for _, t := range d.App.Stage(s).Succs {
				tg := d.groupOf[t]
				if !seen[tg] {
					seen[tg] = true
					g.Next = append(g.Next, tg)
				}
			}
		}
	}
}

// computeTails fills TailANL by memoized traversal over the group DAG.
func (d *Distribution) computeTails() {
	memo := make([]float64, len(d.Groups))
	done := make([]bool, len(d.Groups))
	var tail func(int) float64
	tail = func(gi int) float64 {
		if done[gi] {
			return memo[gi]
		}
		done[gi] = true // groups form a DAG; mark before recursion is safe
		g := &d.Groups[gi]
		var best float64
		for _, n := range g.Next {
			if t := tail(n); t > best {
				best = t
			}
		}
		memo[gi] = g.ANL + best
		return memo[gi]
	}
	for gi := range d.Groups {
		d.Groups[gi].TailANL = tail(gi)
	}
}

// assignQuotas performs the reverse-reduction SLO assignment: the entry
// group's chain receives budget 1, each group takes ANL/TailANL of the
// budget reaching it, and every successor inherits the remainder (parallel
// branches share the same time window, so each inherits the full
// remainder).
func (d *Distribution) assignQuotas() {
	if len(d.Groups) == 0 {
		return
	}
	// budget[g] is the fraction of the SLO still available when g starts.
	// A join starts only after its slowest incoming branch, so a group
	// with several predecessors inherits the MINIMUM remaining budget —
	// otherwise a path through a long branch could overrun the SLO.
	budget := make([]float64, len(d.Groups))
	for i := range budget {
		budget[i] = -1 // unset
	}
	entry := d.groupOf[d.App.Entry()]
	budget[entry] = 1
	order := d.topoGroups()
	for _, gi := range order {
		g := &d.Groups[gi]
		if budget[gi] < 0 {
			budget[gi] = 0 // unreachable from the entry (cannot happen for valid DAGs)
		}
		if g.TailANL <= 0 {
			g.Quota = 0
			continue
		}
		g.Quota = budget[gi] * g.ANL / g.TailANL
		rem := budget[gi] - g.Quota
		for _, n := range g.Next {
			if budget[n] < 0 || rem < budget[n] {
				budget[n] = rem
			}
		}
	}
}

// topoGroups orders group IDs so every group precedes its Next groups.
func (d *Distribution) topoGroups() []int {
	n := len(d.Groups)
	indeg := make([]int, n)
	for gi := range d.Groups {
		for _, t := range d.Groups[gi].Next {
			indeg[t]++
		}
	}
	var queue, order []int
	for gi := 0; gi < n; gi++ {
		if indeg[gi] == 0 {
			queue = append(queue, gi)
		}
	}
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		order = append(order, gi)
		for _, t := range d.Groups[gi].Next {
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	return order
}

// GroupOf returns the group containing the stage.
func (d *Distribution) GroupOf(stage int) *Group {
	return &d.Groups[d.groupOf[stage]]
}

// RemainingSequence returns the stages of the group from the given stage to
// the group's end (the sequence ESG_1Q searches) and the sequence's quota:
// the fraction of the remaining SLO budget this sequence should consume,
// computed as ANL(sequence) / (ANL(sequence) + TailANL after the group).
// This is the adaptive "q" input of Algorithm 1.
func (d *Distribution) RemainingSequence(stage int) (stages []int, quota float64) {
	g := d.GroupOf(stage)
	pos := d.posOf[stage]
	stages = append([]int(nil), g.Stages[pos:]...)
	var seqANL float64
	for _, s := range stages {
		seqANL += d.anl[s]
	}
	var after float64
	for _, n := range g.Next {
		if t := d.Groups[n].TailANL; t > after {
			after = t
		}
	}
	den := seqANL + after
	if den <= 0 {
		return stages, 1
	}
	return stages, seqANL / den
}
