package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		n := 1000
		hits := make([]int32, n)
		For(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestDoRunsAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var a, b, c atomic.Int32
		Do(workers,
			func() { a.Add(1) },
			func() { b.Add(1) },
			func() { c.Add(1) })
		if a.Load() != 1 || b.Load() != 1 || c.Load() != 1 {
			t.Fatalf("workers=%d: calls %d %d %d", workers, a.Load(), b.Load(), c.Load())
		}
	}
}

func TestPanicPropagation(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("%s: recovered %v, want boom", name, r)
			}
		}()
		f()
	}
	check("For", func() {
		For(4, 100, func(i int) {
			if i == 50 {
				panic("boom")
			}
		})
	})
	check("Do", func() {
		Do(4, func() {}, func() { panic("boom") })
	})
	check("For-inline", func() {
		For(1, 10, func(i int) { panic("boom") })
	})
}
