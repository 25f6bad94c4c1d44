package sat

import "math/bits"

// varHeap is a binary max-heap of variables ordered by VSIDS activity, the
// later variable first among equals, with an index map enabling
// decrease-key when activities are bumped.
type varHeap struct {
	heap     []Var
	indices  []int32 // position of each var in heap, -1 if absent
	activity *[]float64
}

func (h *varHeap) less(a, b Var) bool {
	act := *h.activity
	if act[a] != act[b] {
		return act[a] > act[b]
	}
	return a > b
}

func (h *varHeap) inHeap(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) insert(v Var) {
	for Var(len(h.indices)) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.indices[v] = int32(len(h.heap))
	h.heap = append(h.heap, v)
	h.percolateUp(int(h.indices[v]))
}

// decrease restores the heap property after v's activity increased
// (named after the classical decrease-key, since a higher activity means a
// smaller key in the ordering).
func (h *varHeap) decrease(v Var) {
	h.percolateUp(int(h.indices[v]))
}

func (h *varHeap) removeMin() (Var, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	top := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[top] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.indices[last] = 0
		h.percolateDown(0)
	}
	return top, true
}

func (h *varHeap) percolateUp(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.indices[h.heap[i]] = int32(i)
		i = parent
	}
	h.heap[i] = v
	h.indices[v] = int32(i)
}

func (h *varHeap) percolateDown(i int) {
	v := h.heap[i]
	for {
		left, right := 2*i+1, 2*i+2
		if left >= len(h.heap) {
			break
		}
		child := left
		if right < len(h.heap) && h.less(h.heap[right], h.heap[left]) {
			child = right
		}
		if !h.less(h.heap[child], v) {
			break
		}
		h.heap[i] = h.heap[child]
		h.indices[h.heap[i]] = int32(i)
		i = child
	}
	h.heap[i] = v
	h.indices[v] = int32(i)
}

// bitQueue is a set of variables that yields its largest first: the order
// varHeap keeps among variables of equal activity, for the variables no
// conflict has bumped yet, which are most of a circuit's. words holds one
// bit per variable, and summary one bit per nonzero word.
type bitQueue struct {
	words, summary []uint64
}

// grow makes room for n variables.
func (q *bitQueue) grow(n int) {
	for len(q.words) < (n+63)/64 {
		q.words = append(q.words, 0)
	}
	for len(q.summary) < (len(q.words)+63)/64 {
		q.summary = append(q.summary, 0)
	}
}

func (q *bitQueue) has(v Var) bool { return q.words[v>>6]&(1<<(v&63)) != 0 }

func (q *bitQueue) add(v Var) {
	q.words[v>>6] |= 1 << (v & 63)
	q.summary[v>>12] |= 1 << (v >> 6 & 63)
}

func (q *bitQueue) remove(v Var) {
	if q.words[v>>6] &^= 1 << (v & 63); q.words[v>>6] == 0 {
		q.summary[v>>12] &^= 1 << (v >> 6 & 63)
	}
}

// max returns the largest variable in q, if any.
func (q *bitQueue) max() (Var, bool) {
	for i := len(q.summary) - 1; i >= 0; i-- {
		if s := q.summary[i]; s != 0 {
			w := i*64 + 63 - bits.LeadingZeros64(s)
			return Var(w*64 + 63 - bits.LeadingZeros64(q.words[w])), true
		}
	}
	return 0, false
}
