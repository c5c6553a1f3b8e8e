package obs

import "runtime"

// AddRuntimeMetrics adds the Go runtime families (goroutines, heap,
// GC) to e from one runtime.ReadMemStats snapshot.
func AddRuntimeMetrics(e *Exposition) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	e.Gauge("go_goroutines", "Number of live goroutines.", float64(runtime.NumGoroutine()))
	e.Gauge("go_mem_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(m.HeapAlloc))
	e.Gauge("go_mem_heap_sys_bytes", "Bytes of heap memory obtained from the OS.", float64(m.HeapSys))
	e.Gauge("go_mem_heap_objects", "Number of allocated heap objects.", float64(m.HeapObjects))
	e.Gauge("go_mem_heap_goal_bytes", "Heap size at which the next GC cycle starts.", float64(m.NextGC))
	e.Counter("go_gc_cycles_total", "Completed GC cycles.", float64(m.NumGC))
	e.Counter("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time in seconds.", float64(m.PauseTotalNs)/1e9)
}
