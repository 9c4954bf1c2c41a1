package ilist

import (
	"math/rand"
	"slices"
	"testing"
)

// TestListMatchesSlice drives three lists over one slab with random pushes
// and removals, head, tail and middle, and holds each to a plain slice after
// every op: the forward walk, the backward walk, Len, and a cleared link on
// every record no list holds.
func TestListMatchesSlice(t *testing.T) {
	const slab, lists, steps = 40, 3, 20000
	rng := rand.New(rand.NewSource(1))
	links := make([]Link, slab)
	var ls [lists]List
	var model [lists][]uint32
	on := make([]int, slab) // list index + 1, 0: on none
	for step := 0; step < steps; step++ {
		i := uint32(1 + rng.Intn(slab-1))
		if k := on[i]; k != 0 {
			ls[k-1].Remove(links, i)
			model[k-1] = slices.DeleteFunc(model[k-1], func(j uint32) bool { return j == i })
			on[i] = 0
		} else {
			k := rng.Intn(lists)
			ls[k].PushBack(links, i)
			model[k] = append(model[k], i)
			on[i] = k + 1
		}
		for k := range ls {
			var fwd, back []uint32
			for j := ls[k].Head; j != 0; j = links[j].Next {
				fwd = append(fwd, j)
			}
			for j := ls[k].Tail; j != 0; j = links[j].Prev {
				back = append(back, j)
			}
			slices.Reverse(back)
			if !slices.Equal(fwd, model[k]) || !slices.Equal(back, model[k]) || ls[k].Len != len(model[k]) {
				t.Fatalf("step %d list %d: forward %v, backward %v, len %d; want %v", step, k, fwd, back, ls[k].Len, model[k])
			}
		}
		for j := 1; j < slab; j++ {
			if on[j] == 0 && links[j] != (Link{}) {
				t.Fatalf("step %d: record %d is on no list but keeps link %+v", step, j, links[j])
			}
		}
	}
}

// TestZeroListEmpty pins that the zero List is empty and that emptying a
// list returns it to the zero value.
func TestZeroListEmpty(t *testing.T) {
	var l List
	if l != (List{}) || l.Head != 0 || l.Tail != 0 || l.Len != 0 {
		t.Fatalf("zero list %+v", l)
	}
	links := make([]Link, 3)
	l.PushBack(links, 1)
	l.PushBack(links, 2)
	l.Remove(links, 1)
	l.Remove(links, 2)
	if l != (List{}) {
		t.Fatalf("emptied list %+v, want the zero List", l)
	}
}
