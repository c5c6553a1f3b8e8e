package obs

import "runtime"

// RegisterRuntimeMetrics registers Go runtime gauges (goroutines,
// heap, GC) read at gather time. runtime.ReadMemStats is taken once
// per exposition via an OnGather snapshot shared by all seven
// instruments, not once per instrument.
func RegisterRuntimeMetrics(r *Registry) {
	goroutines := r.Gauge("go_goroutines", "Number of live goroutines.")
	heapAlloc := r.Gauge("go_mem_heap_alloc_bytes", "Bytes of allocated heap objects.")
	heapSys := r.Gauge("go_mem_heap_sys_bytes", "Bytes of heap memory obtained from the OS.")
	heapObjects := r.Gauge("go_mem_heap_objects", "Number of allocated heap objects.")
	heapGoal := r.Gauge("go_mem_heap_goal_bytes", "Heap size at which the next GC cycle starts.")
	gcCycles := r.Counter("go_gc_cycles_total", "Completed GC cycles.")
	gcPause := r.Counter("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time in seconds.")
	r.OnGather(func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapAlloc.Set(float64(m.HeapAlloc))
		heapSys.Set(float64(m.HeapSys))
		heapObjects.Set(float64(m.HeapObjects))
		heapGoal.Set(float64(m.NextGC))
		gcCycles.Set(float64(m.NumGC))
		gcPause.Set(float64(m.PauseTotalNs) / 1e9)
	})
}
