package mpisim

import (
	"math"
	"testing"

	"clustereval/internal/units"
)

func TestSplitEvenOdd(t *testing.T) {
	w := newTofuWorld(t, 9, 4)
	newRanks := make([]int, 9)
	newSizes := make([]int, 9)
	sums := make([]float64, 9)
	err := w.Run(func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub == nil {
			t.Errorf("rank %d got nil sub-communicator", c.Rank())
			return
		}
		newRanks[c.Rank()] = sub.Rank()
		newSizes[c.Rank()] = sub.Size()
		// A collective inside the sub-communicator sums only its members.
		sums[c.Rank()] = sub.AllreduceScalar(float64(c.Rank()), OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Evens: ranks 0,2,4,6,8 (size 5); odds: 1,3,5,7 (size 4).
	evenSum, oddSum := 0.0+2+4+6+8, 1.0+3+5+7
	for r := 0; r < 9; r++ {
		wantSize, wantSum := 5, evenSum
		if r%2 == 1 {
			wantSize, wantSum = 4, oddSum
		}
		if newSizes[r] != wantSize {
			t.Errorf("rank %d: sub size %d, want %d", r, newSizes[r], wantSize)
		}
		if sums[r] != wantSum {
			t.Errorf("rank %d: sub allreduce %v, want %v", r, sums[r], wantSum)
		}
		if newRanks[r] != r/2 {
			t.Errorf("rank %d: new rank %d, want %d", r, newRanks[r], r/2)
		}
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	// Reversed keys reverse the rank order within the new communicator.
	w := newTofuWorld(t, 4, 4)
	newRanks := make([]int, 4)
	err := w.Run(func(c *Comm) {
		sub := c.Split(0, -c.Rank())
		newRanks[c.Rank()] = sub.Rank()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if newRanks[r] != 3-r {
			t.Errorf("rank %d: new rank %d, want %d", r, newRanks[r], 3-r)
		}
	}
}

func TestSplitUndefined(t *testing.T) {
	w := newTofuWorld(t, 4, 4)
	err := w.Run(func(c *Comm) {
		color := 0
		if c.Rank() == 3 {
			color = UndefinedColor
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("UndefinedColor should yield nil")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("sub size %d, want 3", sub.Size())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitIsolation(t *testing.T) {
	// Point-to-point in a sub-communicator must not match world traffic
	// with the same (source, tag).
	w := newTofuWorld(t, 4, 4)
	got := make([]float64, 4)
	err := w.Run(func(c *Comm) {
		sub := c.Split(c.Rank()/2, c.Rank()) // {0,1} and {2,3}
		switch sub.Rank() {
		case 0:
			// World rank 0 sends on the world comm; sub rank 0 sends on sub.
			if c.Rank() == 0 {
				c.Send(1, 5, 64, []float64{100}) // world send to world rank 1
			}
			sub.Send(1, 5, 64, []float64{float64(10 + c.Rank())})
		case 1:
			// Receive on the sub-communicator first: must get the sub
			// message even though a world message with same tag may exist.
			msg := sub.Recv(0, 5)
			got[c.Rank()] = msg.Payload.([]float64)[0]
			if c.Rank() == 1 {
				c.Recv(0, 5) // drain the world message
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 10 {
		t.Errorf("sub {0,1}: rank 1 got %v, want 10 (not the world message)", got[1])
	}
	if got[3] != 12 {
		t.Errorf("sub {2,3}: rank 3 got %v, want 12", got[3])
	}
}

func TestNestedSplit(t *testing.T) {
	w := newTofuWorld(t, 8, 4)
	sizes := make([]int, 8)
	err := w.Run(func(c *Comm) {
		half := c.Split(c.Rank()/4, c.Rank())   // two groups of 4
		quarter := half.Split(half.Rank()/2, 0) // four groups of 2
		sizes[c.Rank()] = quarter.Size()
		if got := quarter.AllreduceScalar(1, OpSum); got != 2 {
			t.Errorf("rank %d: nested allreduce %v, want 2", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range sizes {
		if s != 2 {
			t.Errorf("rank %d: nested size %d, want 2", r, s)
		}
	}
}

func TestGlobalRankMapping(t *testing.T) {
	w := newTofuWorld(t, 6, 3)
	err := w.Run(func(c *Comm) {
		sub := c.Split(c.Rank()%3, 0)
		if sub.GlobalRank() != c.Rank() {
			t.Errorf("global rank %d != world rank %d", sub.GlobalRank(), c.Rank())
		}
		if sub.Node() != c.Node() {
			t.Error("node changed across Split")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 13} {
		w := newTofuWorld(t, p, 4)
		results := make([]float64, p)
		err := w.Run(func(c *Comm) {
			results[c.Rank()] = c.Scan([]float64{float64(c.Rank() + 1)}, OpSum, 8)[0]
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for r, got := range results {
			want := float64((r + 1) * (r + 2) / 2) // 1+2+...+(r+1)
			if got != want {
				t.Errorf("p=%d rank %d: scan = %v, want %v", p, r, got, want)
			}
		}
	}
}

func TestScanMax(t *testing.T) {
	w := newTofuWorld(t, 6, 3)
	vals := []float64{3, 1, 4, 1, 5, 2}
	results := make([]float64, 6)
	err := w.Run(func(c *Comm) {
		results[c.Rank()] = c.Scan([]float64{vals[c.Rank()]}, OpMax, 8)[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 3, 4, 4, 5, 5}
	for r := range want {
		if results[r] != want[r] {
			t.Errorf("rank %d: running max %v, want %v", r, results[r], want[r])
		}
	}
}

func TestReduceScatter(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6} {
		w := newTofuWorld(t, p, 4)
		results := make([][]float64, p)
		err := w.Run(func(c *Comm) {
			blocks := make([][]float64, p)
			for i := range blocks {
				blocks[i] = []float64{float64(c.Rank()*100 + i), 1}
			}
			results[c.Rank()] = c.ReduceScatter(blocks, OpSum, 8)
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for r, res := range results {
			// sum over ranks s of (s*100 + r).
			want := 100.0*float64(p*(p-1))/2 + float64(r*p)
			if math.Abs(res[0]-want) > 1e-12 || res[1] != float64(p) {
				t.Errorf("p=%d rank %d: reduce-scatter %v, want [%v %v]", p, r, res, want, p)
			}
		}
	}
}

func TestReduceScatterPanicsOnArity(t *testing.T) {
	w := newTofuWorld(t, 2, 2)
	err := w.Run(func(c *Comm) {
		defer func() {
			if recover() == nil {
				t.Error("wrong block count accepted")
			}
			// Unblock the partner so the run does not deadlock: send what
			// it expects.
			panic("rethrow") // propagate to the engine as a controlled failure
		}()
		c.ReduceScatter([][]float64{{1}}, OpSum, 8)
	})
	if err == nil {
		t.Error("expected engine error from panicking ranks")
	}
}

func TestSubCommTimingStillPhysical(t *testing.T) {
	// Messages inside a sub-communicator still pay real network costs.
	w := newTofuWorld(t, 4, 1) // one rank per node
	var elapsed units.Seconds
	err := w.Run(func(c *Comm) {
		sub := c.Split(c.Rank()%2, 0)
		start := c.Now()
		if sub.Rank() == 0 {
			sub.Send(1, 0, units.Bytes(1*units.MiB), nil)
		} else {
			sub.Recv(0, 0)
			if c.Rank() == 2 || c.Rank() == 3 {
				elapsed = c.Now() - start
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 MiB at 6.8 GB/s is ~154 us minimum.
	if elapsed < units.Seconds(100e-6) {
		t.Errorf("sub-communicator transfer too fast: %v", elapsed)
	}
}
