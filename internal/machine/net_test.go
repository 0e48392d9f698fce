package machine

import (
	"fmt"
	"testing"

	"repro/internal/instr"
)

func TestFatTreeHops(t *testing.T) {
	ft := NewFatTree(4096, 8, CM5())
	cases := []struct {
		src, dst, hops int
	}{
		{0, 0, 1},    // same node
		{0, 7, 1},    // same leaf switch: through one switch
		{0, 8, 3},    // adjacent leaf groups: up, level-2 switch, down
		{0, 63, 3},   // same level-2 subtree
		{0, 64, 5},   // same level-3 subtree
		{0, 511, 5},  //
		{0, 512, 7},  // crosses the root
		{0, 4095, 7}, // maximum distance at 4096 nodes, radix 8
	}
	for _, c := range cases {
		if got := ft.Hops(c.src, c.dst); got != c.hops {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.hops)
		}
	}
}

func TestFatTreeDistanceOrdering(t *testing.T) {
	m := CM5()
	ft := NewFatTree(64, 4, m)
	// Uncontended latency must grow with distance and with payload.
	near := ft.Delay(0, 1, 4, 0)
	mid := ft.Delay(8, 12, 4, 1_000_000) // far departure: no shared links with `near`
	far := ft.Delay(16, 63, 4, 2_000_000)
	if !(near < mid && mid < far) {
		t.Fatalf("latency not increasing with distance: near=%d mid=%d far=%d", near, mid, far)
	}
	small := ft.Delay(32, 33, 1, 3_000_000)
	big := ft.Delay(40, 41, 100, 3_000_000)
	if small >= big {
		t.Fatalf("latency not increasing with payload: %d-word=%d, %d-word=%d", 1, small, 100, big)
	}
}

func TestFatTreeContention(t *testing.T) {
	m := CM5()
	ft := NewFatTree(64, 4, m)
	// Two messages crossing the same up-link at the same instant: the second
	// waits out the first's occupancy.
	first := ft.Delay(0, 16, 50, 0)
	second := ft.Delay(1, 17, 50, 0)
	if second <= first {
		t.Fatalf("no contention charged: first=%d second=%d", first, second)
	}
	if ft.Waits == 0 || ft.WaitInstr == 0 {
		t.Fatalf("contention counters not updated: waits=%d instr=%d", ft.Waits, ft.WaitInstr)
	}
	want := first + m.NetPerWord*50
	if second != want {
		t.Fatalf("second = %d, want first + occupancy = %d", second, want)
	}
	// Disjoint subtrees at a later instant share nothing: no new waits.
	w := ft.Waits
	ft.Delay(32, 33, 50, 1_000_000)
	ft.Delay(36, 37, 50, 1_000_000)
	if ft.Waits != w {
		t.Fatalf("disjoint routes contended: waits %d -> %d", w, ft.Waits)
	}
}

func TestFatTreeDeterminism(t *testing.T) {
	m := T3D()
	run := func() []instr.Instr {
		ft := NewFatTree(256, 8, m)
		var out []instr.Instr
		for i := 0; i < 500; i++ {
			src := (i * 37) % 256
			dst := (i*91 + 13) % 256
			out = append(out, ft.Delay(src, dst, 1+(i%32), instr.Instr(i*10)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs between identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestFatTreeDegenerate(t *testing.T) {
	ft := NewFatTree(1, 8, CM5())
	if d := ft.Delay(0, 0, 4, 0); d <= 0 {
		t.Fatalf("1-node delay = %d", d)
	}
	// Non-power-of-radix node counts must route without panicking.
	ft = NewFatTree(100, 8, CM5())
	for _, pair := range [][2]int{{0, 99}, {99, 0}, {7, 8}, {63, 64}, {95, 99}} {
		if d := ft.Delay(pair[0], pair[1], 8, 0); d <= 0 {
			t.Fatalf("Delay(%d,%d) = %d", pair[0], pair[1], d)
		}
	}
}

// TestFatTreeLeafBounds checks the LeafNetwork promises the parallel
// engine relies on, under heavy contention: every cross-leaf Delay is at
// least MinDelayAcross, and a same-leaf Delay neither reads nor moves any
// link horizon (it costs one hop plus serialization, however busy the
// links are).
func TestFatTreeLeafBounds(t *testing.T) {
	m := CM5()
	ft := NewFatTree(100, 4, m)
	var ln LeafNetwork = ft
	if ln.LeafSize() != 4 || ln.MinDelayAcross() != 3*ft.hopLat {
		t.Fatalf("LeafSize %d, MinDelayAcross %d; want 4 and %d", ln.LeafSize(), ln.MinDelayAcross(), 3*ft.hopLat)
	}
	for i := 0; i < 3000; i++ {
		src, dst := (i*37)%100, (i*91+13)%100
		words := i % 9
		waits, before := ft.Waits, horizons(ft)
		d := ft.Delay(src, dst, words, instr.Instr(i%50))
		if src/4 != dst/4 {
			if d < ln.MinDelayAcross() {
				t.Fatalf("Delay(%d,%d) = %d below MinDelayAcross %d", src, dst, d, ln.MinDelayAcross())
			}
			continue
		}
		if want := ft.hopLat + m.NetPerWord*instr.Instr(words); d != want || ft.Waits != waits {
			t.Fatalf("same-leaf Delay(%d,%d) = %d (waits %d -> %d), want %d and no wait", src, dst, d, waits, ft.Waits, want)
		}
		if after := horizons(ft); after != before {
			t.Fatalf("same-leaf Delay(%d,%d) moved a link horizon", src, dst)
		}
	}
	if ft.Waits == 0 {
		t.Fatal("no contention: the cross-leaf routes never met a busy link")
	}
}

// horizons renders every link's busy-until horizon.
func horizons(ft *FatTree) string {
	return fmt.Sprint(ft.up, ft.down)
}
