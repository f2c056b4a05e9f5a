package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// span is one timed call: name, parent name, start and end in ns since
// the recorder's epoch. Spans of one frame share id (user<<32 | the
// user's frame number), so a parent is found by (id, name).
type span struct {
	id           uint64
	name, parent string
	start, end   int64
}

func (s span) dur() int64 { return s.end - s.start }

func frameID(user, n int) uint64 { return uint64(user)<<32 | uint64(n) }

// recorder keeps spans in memory; they are written once the run ends.
type recorder struct {
	spans []span
}

func (r *recorder) add(id uint64, name, parent string, start, end int64) {
	r.spans = append(r.spans, span{id: id, name: name, parent: parent, start: start, end: end})
}

// selfTimes returns, for every span named name, its duration minus the
// part of its interval covered by its children (spans of the same id
// whose parent is name), in recording order.
func selfTimes(spans []span, name string) []int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.parent == name {
			children[s.id] = append(children[s.id], s)
		}
	}
	var out []int64
	for _, s := range spans {
		if s.name == name {
			out = append(out, s.dur()-covered(s, children[s.id]))
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if open && v[0] <= curHi {
			curHi = max(curHi, v[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v[0], v[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// meanUs is the mean duration in µs of the spans named name, summed per
// frame id first when perFrame is set (several calls in one frame).
func meanUs(spans []span, name string, perFrame bool) float64 {
	if !perFrame {
		var sum, n int64
		for _, s := range spans {
			if s.name == name {
				sum += s.dur()
				n++
			}
		}
		return nsToUs(sum, n)
	}
	per := map[uint64]int64{}
	for _, s := range spans {
		if s.name == name {
			per[s.id] += s.dur()
		}
	}
	var sum int64
	for _, d := range per {
		sum += d
	}
	return nsToUs(sum, int64(len(per)))
}

func nsToUs(sum, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// write stores the spans as CSV: frame id, name, parent, start, end.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "user,frame,name,parent,start_ns,end_ns")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d\n", s.id>>32, uint32(s.id), s.name, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
