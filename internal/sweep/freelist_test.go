package sweep

import (
	"sync"
	"testing"
)

// TestFreeListReuse checks that a freed value is handed out again and that
// New runs only while no value is free, from any number of goroutines.
func TestFreeListReuse(t *testing.T) {
	built := 0
	var mu sync.Mutex
	l := FreeList[*int]{New: func() *int {
		mu.Lock()
		built++
		mu.Unlock()
		return new(int)
	}}
	a := l.Get()
	l.Put(a)
	if b := l.Get(); b != a {
		t.Fatal("a freed value was not reused")
	}
	l.Put(a)

	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v := l.Get()
				*v++
				l.Put(v)
			}
		}()
	}
	wg.Wait()
	if built < 1 || built > workers {
		t.Fatalf("built %d values for %d concurrent users, want 1..%d", built, workers, workers)
	}
	if got := len(l.free); got != built {
		t.Fatalf("%d values free after all users returned theirs, built %d", got, built)
	}
}
