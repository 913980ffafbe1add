package ids

import (
	"sync"
	"testing"
)

func TestNextMonotonic(t *testing.T) {
	a := NewAllocator()
	for want := ID(0); want < 100; want++ {
		if got := a.Next(); got != want {
			t.Fatalf("Next() = %d, want %d", got, want)
		}
	}
	if a.HighWater() != 100 {
		t.Fatalf("HighWater() = %d, want 100", a.HighWater())
	}
}

func TestReleaseReuse(t *testing.T) {
	a := NewAllocator()
	for i := 0; i < 10; i++ {
		a.Next()
	}
	a.Release(3)
	a.Release(7)
	if a.FreeCount() != 2 {
		t.Fatalf("FreeCount() = %d, want 2", a.FreeCount())
	}
	got := map[ID]bool{a.Next(): true, a.Next(): true}
	if !got[3] || !got[7] {
		t.Fatalf("recycled IDs = %v, want {3,7}", got)
	}
	if next := a.Next(); next != 10 {
		t.Fatalf("after recycling, Next() = %d, want 10", next)
	}
}

func TestReleasePanics(t *testing.T) {
	a := NewAllocator()
	a.Next()
	for _, bad := range []ID{5, NoID} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Release(%d) should panic", bad)
				}
			}()
			a.Release(bad)
		}()
	}
}

func TestSetHighWater(t *testing.T) {
	a := NewAllocator()
	a.SetHighWater(50)
	if got := a.Next(); got != 50 {
		t.Fatalf("Next() after SetHighWater(50) = %d", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("shrinking SetHighWater should panic")
			}
		}()
		a.SetHighWater(10)
	}()
}

func TestConcurrentAllocationUnique(t *testing.T) {
	a := NewAllocator()
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	results := make([][]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				results[g] = append(results[g], a.Next())
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[ID]bool, goroutines*perG)
	for _, rs := range results {
		for _, id := range rs {
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("got %d unique ids, want %d", len(seen), goroutines*perG)
	}
}
