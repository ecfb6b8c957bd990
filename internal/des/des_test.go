package des

import (
	"strings"
	"testing"

	"clustereval/internal/units"
)

func TestSingleProcessDelay(t *testing.T) {
	e := New()
	var end units.Seconds
	e.Spawn("a", func(p *Proc) {
		p.Delay(1.5)
		p.Delay(0.5)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 2.0 {
		t.Errorf("end time = %v, want 2.0", end)
	}
	if e.Now() != 2.0 {
		t.Errorf("engine clock = %v", e.Now())
	}
}

func TestInterleaving(t *testing.T) {
	e := New()
	var order []string
	log := func(s string) { order = append(order, s) }
	e.Spawn("slow", func(p *Proc) {
		p.Delay(2)
		log("slow@2")
		p.Delay(2)
		log("slow@4")
	})
	e.Spawn("fast", func(p *Proc) {
		p.Delay(1)
		log("fast@1")
		p.Delay(2)
		log("fast@3")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "fast@1,slow@2,fast@3,slow@4"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	e := New()
	var order []string
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			p.Delay(1)
			order = append(order, name)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "p0,p1,p2" {
		t.Errorf("equal-time order = %s, want spawn order", got)
	}
}

func TestZeroDelayAllowed(t *testing.T) {
	e := New()
	ran := false
	e.Spawn("z", func(p *Proc) {
		p.Delay(0)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("zero delay blocked forever")
	}
}

func TestNegativeDelayPanicsProcess(t *testing.T) {
	e := New()
	e.Spawn("bad", func(p *Proc) { p.Delay(-1) })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("err = %v, want panic propagation", err)
	}
}

func TestCondSignal(t *testing.T) {
	e := New()
	c := e.NewCond("data")
	ready := false
	var consumedAt units.Seconds
	e.Spawn("consumer", func(p *Proc) {
		for !ready {
			c.Wait(p)
		}
		consumedAt = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Delay(3)
		ready = true
		c.Signal()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if consumedAt != 3 {
		t.Errorf("consumed at %v, want 3", consumedAt)
	}
}

func TestCondBroadcast(t *testing.T) {
	e := New()
	c := e.NewCond("go")
	released := false
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			for !released {
				c.Wait(p)
			}
			woken++
		})
	}
	e.Spawn("release", func(p *Proc) {
		p.Delay(1)
		released = true
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Errorf("woken = %d, want 5", woken)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := New()
	c := e.NewCond("never")
	e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "stuck") || !strings.Contains(err.Error(), "never") {
		t.Errorf("deadlock report should name process and condition: %v", err)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := New()
	var childEnd units.Seconds
	e.Spawn("parent", func(p *Proc) {
		p.Delay(5)
		e.Spawn("child", func(q *Proc) {
			q.Delay(3)
			childEnd = q.Now()
		})
		p.Delay(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != 8 {
		t.Errorf("child ended at %v, want 8 (spawned at 5 + 3)", childEnd)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []units.Seconds {
		e := New()
		c := e.NewCond("c")
		var times []units.Seconds
		turn := 0
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				for turn != i {
					c.Wait(p)
				}
				p.Delay(units.Seconds(float64(i) * 0.1))
				times = append(times, p.Now())
				turn++
				c.Broadcast()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property-style check: across many random-ish workloads, events never fire
// at decreasing virtual times.
func TestMonotoneClock(t *testing.T) {
	e := New()
	last := units.Seconds(-1)
	for i := 0; i < 50; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < 20; j++ {
				d := units.Seconds(float64((i*31+j*17)%13) * 0.01)
				p.Delay(d)
				if p.Now() < last {
					t.Errorf("clock moved backwards: %v after %v", p.Now(), last)
				}
				last = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
