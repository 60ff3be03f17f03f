package fl

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach calls f(w, i) once for every i in [0, n) on up to workers
// goroutines (0 = GOMAXPROCS) and returns when every call has
// finished. Indices are handed out in ascending order; w in
// [0, workers) names the goroutine running the call, so f can keep
// per-worker scratch. One worker runs every call on the caller.
// Callers that need results independent of the worker count write
// call i's result into slot i and read the slots in order.
func ForEach(n, workers int, f func(w, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(w, i)
			}
		}()
	}
	wg.Wait()
}
