package model

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strings"
)

// hashPrefix names the canonical form the digest covers; it changes
// whenever that form does, so digests of different forms never meet.
const hashPrefix = "fpga3d-instance-v2"

// CanonicalHash returns a hex-encoded SHA-256 digest of a canonical
// encoding of the instance: the same module set with the same
// precedence structure hashes identically no matter in which order
// tasks or arcs were inserted (or serialized), while any change to a
// task dimension, duration, name, or precedence edge yields a
// different digest. The instance Name is deliberately excluded — it
// labels the problem but does not change it.
//
// The canonical form is built by colour refinement on the precedence
// digraph, with dense integer colours. Each task starts from the rank
// of its (name, w, h, dur) label together with its depth and height in
// the DAG (longest arc paths from a source and to a sink), so a chain
// is fully refined before the first round. Each round then sorts the
// (own colour, sorted predecessor colours, sorted successor colours)
// signatures and relabels them to dense ids in that order, until the
// number of classes stops growing. Because colours are ranks of
// numbering-free signatures, they are themselves canonical: one
// SHA-256 covers the length-prefixed list of (colour, label) pairs in
// colour order, the sorted multiset of arc colour pairs, and any
// out-of-range arcs verbatim. Invalid instances (cycles, out-of-range
// arcs) hash without panicking and still hash differently from their
// valid neighbours.
//
// Instances that colour refinement cannot tell apart but that are not
// isomorphic collide. The smallest are on six tasks: two transitive
// triangles and a six-cycle with the same local view. Callers that
// cache placements by hash can (and should) verify a cached placement
// against the requesting instance before serving it.
func (in *Instance) CanonicalHash() string {
	n := len(in.Tasks)
	c := newCanonForm(in)
	c.refine(in.Tasks)

	buf := make([]byte, 0, len(hashPrefix)+16+n*12+len(in.Prec)*4)
	buf = append(buf, hashPrefix...)
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, i := range c.order {
		t := in.Tasks[i]
		buf = binary.AppendUvarint(buf, uint64(c.colour[i]))
		buf = binary.AppendUvarint(buf, uint64(len(t.Name)))
		buf = append(buf, t.Name...)
		buf = binary.AppendVarint(buf, int64(t.W))
		buf = binary.AppendVarint(buf, int64(t.H))
		buf = binary.AppendVarint(buf, int64(t.Dur))
	}

	// Arc colour pairs, packed as from<<32 | to so they sort as ints;
	// colours are below n, which fits in 31 bits.
	k := 0
	for u := 0; u < n; u++ {
		for _, v := range c.succs[c.succOff[u]:c.succOff[u+1]] {
			c.arcs[k] = c.colour[u]<<32 | c.colour[v]
			k++
		}
	}
	slices.Sort(c.arcs)
	buf = binary.AppendUvarint(buf, uint64(len(c.arcs)))
	for _, a := range c.arcs {
		buf = binary.AppendUvarint(buf, uint64(a))
	}

	slices.SortFunc(c.bad, func(a, b Arc) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	buf = binary.AppendUvarint(buf, uint64(len(c.bad)))
	for _, a := range c.bad {
		buf = binary.AppendVarint(buf, int64(a.From))
		buf = binary.AppendVarint(buf, int64(a.To))
	}

	sum := sha256.Sum256(buf)
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:])
}

// canonForm is the precedence digraph in compressed adjacency form
// plus the refinement's working slices, all carved from one
// allocation. Task u's predecessors are preds[predOff[u]:predOff[u+1]]
// and its successors succs[succOff[u]:succOff[u+1]]; arcs repeat as
// often as they occur in Prec, and out-of-range arcs are kept aside in
// bad.
type canonForm struct {
	predOff, preds []int
	succOff, succs []int
	bad            []Arc

	// colour is each task's colour and order the tasks sorted by it;
	// next is the next round's colours. depth, height, pending and
	// queue serve the seeds. predCol and succCol hold each task's
	// sorted neighbour colours, laid out like preds and succs. arcs
	// holds the packed arc colour pairs.
	colour, order, next           []int
	depth, height, pending, queue []int
	predCol, succCol, arcs        []int
}

// newCanonForm builds the compressed form of in's precedence arcs
// and carves the refinement's working slices.
func newCanonForm(in *Instance) canonForm {
	n := len(in.Tasks)
	var c canonForm
	inRange := func(a Arc) bool { return a.From >= 0 && a.From < n && a.To >= 0 && a.To < n }
	m := 0
	for _, a := range in.Prec {
		if inRange(a) {
			m++
		} else {
			c.bad = append(c.bad, a)
		}
	}
	mem := make([]int, 9*n+2+5*m)
	carve := func(k int) []int {
		s := mem[:k:k]
		mem = mem[k:]
		return s
	}
	c.predOff, c.succOff = carve(n+1), carve(n+1)
	c.preds, c.succs = carve(m), carve(m)
	c.colour, c.order, c.next = carve(n), carve(n), carve(n)
	c.depth, c.height, c.pending, c.queue = carve(n), carve(n), carve(n), carve(n)
	c.predCol, c.succCol, c.arcs = carve(m), carve(m), carve(m)

	for _, a := range in.Prec {
		if inRange(a) {
			c.succOff[a.From+1]++
			c.predOff[a.To+1]++
		}
	}
	for u := 0; u < n; u++ {
		c.succOff[u+1] += c.succOff[u]
		c.predOff[u+1] += c.predOff[u]
	}
	// Fill each list through its start offset, which leaves off[u] at
	// the start of u+1; shifting back restores the offsets.
	for _, a := range in.Prec {
		if inRange(a) {
			c.succs[c.succOff[a.From]] = a.To
			c.succOff[a.From]++
			c.preds[c.predOff[a.To]] = a.From
			c.predOff[a.To]++
		}
	}
	copy(c.succOff[1:], c.succOff[:n])
	copy(c.predOff[1:], c.predOff[:n])
	c.succOff[0], c.predOff[0] = 0, 0
	return c
}

// refine sets the stable colour of every task and sorts order by it.
func (c *canonForm) refine(tasks []Task) {
	n := len(tasks)
	longestPaths(c.depth, c.predOff, c.succOff, c.succs, c.pending, c.queue)
	longestPaths(c.height, c.succOff, c.predOff, c.preds, c.pending, c.queue)
	for i := range c.order {
		c.order[i] = i
	}
	depth, height := c.depth, c.height
	classes := relabel(c.order, c.colour, func(a, b int) int {
		ta, tb := tasks[a], tasks[b]
		return cmp.Or(
			strings.Compare(ta.Name, tb.Name),
			cmp.Compare(ta.W, tb.W), cmp.Compare(ta.H, tb.H), cmp.Compare(ta.Dur, tb.Dur),
			cmp.Compare(depth[a], depth[b]), cmp.Compare(height[a], height[b]))
	})
	if len(c.succs) == 0 {
		return
	}

	predOff, succOff, predCol, succCol := c.predOff, c.succOff, c.predCol, c.succCol
	for classes < n {
		colour := c.colour
		fillSorted(predCol, predOff, c.preds, colour)
		fillSorted(succCol, succOff, c.succs, colour)
		k := relabel(c.order, c.next, func(a, b int) int {
			return cmp.Or(
				cmp.Compare(colour[a], colour[b]),
				slices.Compare(predCol[predOff[a]:predOff[a+1]], predCol[predOff[b]:predOff[b+1]]),
				slices.Compare(succCol[succOff[a]:succOff[a+1]], succCol[succOff[b]:succOff[b+1]]))
		})
		// The own colour leads the signature, so a round only splits
		// classes; an unchanged count means an unchanged partition, and
		// then the new ids equal the old ones.
		if k == classes {
			break
		}
		classes = k
		c.colour, c.next = c.next, c.colour
	}
}

// relabel sorts order by the signature comparison sig and writes each
// task's dense signature rank into colour. It returns the number of
// distinct signatures.
func relabel(order, colour []int, sig func(a, b int) int) int {
	slices.SortFunc(order, sig)
	c := 0
	for k, v := range order {
		if k > 0 && sig(order[k-1], v) != 0 {
			c++
		}
		colour[v] = c
	}
	return c + 1
}

// fillSorted writes the colours of each task's neighbours (nbr, laid
// out by off) into out, sorted per task.
func fillSorted(out, off, nbr, colour []int) {
	for k, v := range nbr {
		out[k] = colour[v]
	}
	for u := 0; u+1 < len(off); u++ {
		if off[u+1]-off[u] > 1 {
			slices.Sort(out[off[u]:off[u+1]])
		}
	}
}

// longestPaths sets level[v] to the number of arcs on the longest path
// reaching v, walking arcs whose heads' in-degrees inOff gives and
// whose tails' out-lists outOff/out give; pending and queue are
// scratch of the same length. Tasks on a cycle or behind one get -1,
// so an invalid instance still hashes.
func longestPaths(level, inOff, outOff, out, pending, queue []int) {
	queue = queue[:0]
	for v := range level {
		level[v] = 0
		if pending[v] = inOff[v+1] - inOff[v]; pending[v] == 0 {
			queue = append(queue, v)
		}
	}
	for k := 0; k < len(queue); k++ {
		u := queue[k]
		for _, v := range out[outOff[u]:outOff[u+1]] {
			level[v] = max(level[v], level[u]+1)
			if pending[v]--; pending[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(queue) < len(level) {
		for v := range level {
			if pending[v] > 0 {
				level[v] = -1
			}
		}
	}
}
