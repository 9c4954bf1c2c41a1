// Package ilist is the tree's one intrusive doubly linked list, for core's
// LRU, write and free lists, swap's active and inactive lists, hotset's
// ghost list and mongodb's cache LRU. Elements are slab indices, 0 being
// nil; an owner keeps a []Link beside its slab and walks it through Next or
// Prev. Operations are plain slice accesses, since they sit on the fault
// path.
package ilist

// Link is one record's place on a list: the slab indices of its neighbours,
// 0 for none.
type Link struct{ Prev, Next uint32 }

// List is a list of slab indices, Head first, Tail last; Len counts them.
// The zero List is empty.
type List struct {
	Head, Tail uint32
	Len        int
}

// PushBack appends record i, which must not be on the list, at the tail.
func (l *List) PushBack(links []Link, i uint32) {
	links[i] = Link{Prev: l.Tail}
	if l.Tail != 0 {
		links[l.Tail].Next = i
	} else {
		l.Head = i
	}
	l.Tail = i
	l.Len++
}

// Remove unlinks record i, which must be on the list, and clears its link.
func (l *List) Remove(links []Link, i uint32) {
	ln := links[i]
	if ln.Prev != 0 {
		links[ln.Prev].Next = ln.Next
	} else {
		l.Head = ln.Next
	}
	if ln.Next != 0 {
		links[ln.Next].Prev = ln.Prev
	} else {
		l.Tail = ln.Prev
	}
	links[i] = Link{}
	l.Len--
}
