package artifact

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// noLeak checks, when the test ends, that every goroutine it started
// (HTTP servers, peer connections, stress workers) has exited: the
// goroutine count is back to what it was when noLeak was called.
func noLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		// Connections closed just now are still unwinding.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("goroutine leak: %d before the test, %d after", before, after)
		}
	})
}

// key returns a distinct well-formed content address per seed.
func key(seed int) string {
	return fmt.Sprintf("%064x", seed+1)
}

func TestRoundTripAndRestartSurvival(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Options{Dir: dir})
	k := key(1)
	payload := []byte(`{"ipc": 1.5}`)
	if err := s.Put(KindResult, k, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(context.Background(), KindResult, k)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the payload back", got, err)
	}
	if info, err := s.Stat(KindResult, k); err != nil || info.Tier != "memory" {
		t.Fatalf("Stat = %+v, %v; want a memory hit", info, err)
	}

	// A second store over the same directory — a restarted process —
	// must serve the artifact from disk.
	s2 := open(t, Options{Dir: dir})
	got, err = s2.Get(context.Background(), KindResult, k)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("restart Get = %q, %v; want a disk hit", got, err)
	}
	var diskHits uint64
	for _, ts := range s2.Stats() {
		if ts.Tier == "disk" && ts.Kind == string(KindResult) {
			diskHits = ts.Hits
		}
	}
	if diskHits != 1 {
		t.Errorf("disk hits = %d, want 1", diskHits)
	}
	// The inventory taken at Open must have seen the file.
	if !s2.Persistent() {
		t.Error("store with a Dir must report Persistent")
	}
}

func TestKindsDoNotCollide(t *testing.T) {
	s := open(t, Options{Dir: t.TempDir()})
	k := key(2)
	if err := s.Put(KindResult, k, []byte("result")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindTrace, k, []byte("trace")); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Get(context.Background(), KindResult, k)
	tr, _ := s.Get(context.Background(), KindTrace, k)
	if string(r) != "result" || string(tr) != "trace" {
		t.Fatalf("kinds collided: result=%q trace=%q", r, tr)
	}
}

func TestHostileKeysRejected(t *testing.T) {
	s := open(t, Options{Dir: t.TempDir()})
	hostile := []string{
		"",
		"x",                      // too short
		"../../../../etc/passwd", // traversal
		"ABCDEF",                 // uppercase aliases on case-insensitive filesystems
		"0123456789abcdefg",      // non-hex
		strings.Repeat("a", 129), // oversized
		"..",                     // dot segment
		"aa/bb",                  // separator
		"aa\x00bb",               // NUL
		"0123456789abcdef ",      // trailing space
	}
	for _, k := range hostile {
		if _, err := s.Get(context.Background(), KindResult, k); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%q) = %v, want a validation error", k, err)
		}
		if err := s.Put(KindResult, k, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a hostile key", k)
		}
	}
	if _, err := s.Get(context.Background(), Kind("notakind"), key(1)); err == nil || errors.Is(err, ErrNotFound) {
		t.Errorf("unknown kind must be a validation error, got %v", err)
	}
}

func TestCorruptArtifactQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Options{Dir: dir})
	k := key(3)
	if err := s.Put(KindResult, k, []byte("precious bytes")); err != nil {
		t.Fatal(err)
	}
	path := s.kind[KindResult].path(k)
	for name, corrupt := range map[string]func([]byte) []byte{
		"flipped payload bit": func(b []byte) []byte { b[0] ^= 0x40; return b },
		"truncated":           func(b []byte) []byte { return b[:len(b)-5] },
		"bad magic":           func(b []byte) []byte { b[len(b)-1] = 'X'; return b },
		"shorter than footer": func([]byte) []byte { return []byte{1, 2, 3} },
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		// A fresh store (no memory copy) must detect the damage,
		// quarantine the file and report a miss.
		s2 := open(t, Options{Dir: dir})
		if _, err := s2.Get(context.Background(), KindResult, k); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: Get = %v, want ErrNotFound", name, err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: corrupt file still visible under its key", name)
		}
		q, _ := filepath.Glob(filepath.Join(dir, string(KindResult), "quarantine", "*.corrupt"))
		if len(q) == 0 {
			t.Errorf("%s: nothing quarantined", name)
		}
		var quarantined uint64
		for _, ts := range s2.Stats() {
			if ts.Tier == "disk" && ts.Kind == string(KindResult) {
				quarantined = ts.Quarantined
			}
		}
		if quarantined != 1 {
			t.Errorf("%s: quarantined counter = %d, want 1", name, quarantined)
		}
		// Rewrite for the next subcase.
		if err := s.Put(KindResult, k, []byte("precious bytes")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashMidWriteInvisible: a writer that dies before the rename
// leaves only a tmp file — the key must read as absent, and a later
// Open must sweep the orphan once it is stale.
func TestCrashMidWriteInvisible(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Options{Dir: dir})
	kindDir := filepath.Join(dir, string(KindResult))
	tmp := filepath.Join(kindDir, "tmp-crashed")
	if err := os.WriteFile(tmp, []byte("partial art"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(context.Background(), KindResult, key(4)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("partial write visible: %v", err)
	}
	// Fresh orphans survive Open (a live writer may be mid-rename)…
	open(t, Options{Dir: dir})
	if _, err := os.Stat(tmp); err != nil {
		t.Fatal("fresh temp file swept too eagerly")
	}
	// …stale ones are swept.
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}
	open(t, Options{Dir: dir})
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Error("stale temp orphan not swept at Open")
	}
}

func TestMemoryLRU(t *testing.T) {
	// Memory-only store with room for two 1KB artifacts.
	s := open(t, Options{MemBytes: 2048})
	payload := bytes.Repeat([]byte("m"), 1000)
	for i := 0; i < 3; i++ {
		if err := s.Put(KindResult, key(40+i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// The first artifact was evicted; the last two are resident.
	if _, err := s.Get(context.Background(), KindResult, key(40)); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest entry still resident: %v", err)
	}
	if _, err := s.Get(context.Background(), KindResult, key(42)); err != nil {
		t.Errorf("newest entry missing: %v", err)
	}
	var st TierStats
	for _, ts := range s.Stats() {
		if ts.Tier == "memory" && ts.Kind == string(KindResult) {
			st = ts
		}
	}
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("memory stats = %+v, want 1 eviction and 2 residents", st)
	}
	if st.Bytes != 2000 {
		t.Errorf("memory bytes = %d, want 2000", st.Bytes)
	}
}

// memStats returns the memory tier's row for kind.
func memStats(s *Store, kind Kind) TierStats {
	for _, ts := range s.Stats() {
		if ts.Tier == "memory" && ts.Kind == string(kind) {
			return ts
		}
	}
	return TierStats{}
}

// TestPutReplacesChangedContent: a trace key names a workload, not a
// length, so a re-recorded trace is put over a shorter one. The memory
// tier must then hold the new bytes, count them, not the old, and
// evict others if the growth overruns its budget.
func TestPutReplacesChangedContent(t *testing.T) {
	s := open(t, Options{MemBytes: 2048})
	short, long := bytes.Repeat([]byte("a"), 500), bytes.Repeat([]byte("b"), 1500)
	other := bytes.Repeat([]byte("o"), 1000)
	for _, p := range []struct {
		k int
		b []byte
	}{{61, other}, {60, short}, {60, long}} {
		if err := s.Put(KindTrace, key(p.k), p.b); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.GetLocal(KindTrace, key(60))
	if err != nil || !bytes.Equal(got, long) {
		t.Fatalf("Get after the longer Put = %d bytes, %v; want the %d-byte replacement", len(got), err, len(long))
	}
	if _, err := s.GetLocal(KindTrace, key(61)); !errors.Is(err, ErrNotFound) {
		t.Errorf("the replacement overran the budget but the older entry is still resident: %v", err)
	}
	if st := memStats(s, KindTrace); st.Bytes != int64(len(long)) || st.Entries != 1 || st.Evictions != 1 {
		t.Errorf("memory stats = %+v, want %d bytes in 1 entry after 1 eviction", st, len(long))
	}
	// The same bytes again are a refresh: nothing moves.
	if err := s.Put(KindTrace, key(60), bytes.Clone(long)); err != nil {
		t.Fatal(err)
	}
	if st := memStats(s, KindTrace); st.Bytes != int64(len(long)) || st.Entries != 1 {
		t.Errorf("memory stats after an equal Put = %+v", st)
	}
}

// TestPeerTier: a store misses locally, fetches from an HTTP peer,
// persists the artifact, and Share pushes through the same protocol.
func TestPeerTier(t *testing.T) {
	noLeak(t)
	remote := map[string][]byte{key(50): []byte("from the peer")}
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/v1/artifacts/"), "/")
		if len(parts) != 2 {
			http.Error(w, "bad path", http.StatusBadRequest)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch r.Method {
		case http.MethodGet:
			b, ok := remote[parts[1]]
			if !ok {
				http.Error(w, `{"error":"no such artifact"}`, http.StatusNotFound)
				return
			}
			w.Write(b)
		case http.MethodPut:
			b, err := ReadAllLimited(r.Body, MaxArtifactBytes)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			remote[parts[1]] = b
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer srv.Close()

	dir := t.TempDir()
	s := open(t, Options{Dir: dir, Peer: NewHTTPPeer(srv.URL)})
	got, err := s.Get(context.Background(), KindTrace, key(50))
	if err != nil || string(got) != "from the peer" {
		t.Fatalf("peer Get = %q, %v", got, err)
	}
	// The fetch persisted locally: a fresh store over the same dir
	// serves it without the peer.
	s2 := open(t, Options{Dir: dir})
	if got, err := s2.Get(context.Background(), KindTrace, key(50)); err != nil || string(got) != "from the peer" {
		t.Fatalf("fetched artifact not persisted: %q, %v", got, err)
	}
	// A key nobody holds is a miss, counted on the peer tier.
	if _, err := s.Get(context.Background(), KindTrace, key(51)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key = %v, want ErrNotFound", err)
	}
	// Share pushes.
	s.Share(context.Background(), KindTrace, key(52), []byte("pushed"))
	mu.Lock()
	pushed := string(remote[key(52)])
	mu.Unlock()
	if pushed != "pushed" {
		t.Fatalf("Share did not reach the peer: %q", pushed)
	}
	var peer TierStats
	for _, ts := range s.Stats() {
		if ts.Tier == "peer" && ts.Kind == string(KindTrace) {
			peer = ts
		}
	}
	if peer.Hits != 1 || peer.Misses != 1 || peer.Pushes != 1 {
		t.Errorf("peer stats = %+v, want 1 hit, 1 miss, 1 push", peer)
	}
}

// TestConcurrentStress hammers Get/Put/Stat from many goroutines;
// run under -race this is the fabric's thread-safety proof.
func TestConcurrentStress(t *testing.T) {
	noLeak(t)
	s := open(t, Options{Dir: t.TempDir(), MemBytes: 8 << 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(100 + (g+i)%16)
				kind := KindResult
				if i%2 == 0 {
					kind = KindTrace
				}
				switch i % 3 {
				case 0:
					if err := s.Put(kind, k, bytes.Repeat([]byte{byte(i)}, 512)); err != nil {
						t.Error(err)
					}
				case 1:
					s.Get(context.Background(), kind, k)
				case 2:
					s.Stat(kind, k)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPutRejectsOversized(t *testing.T) {
	s := open(t, Options{})
	huge := make([]byte, 0)
	_ = huge
	// Do not allocate 256MB in a unit test: validate the bound check
	// via a fake length using ReadAllLimited instead.
	if _, err := ReadAllLimited(bytes.NewReader(bytes.Repeat([]byte("x"), 100)), 64); err == nil {
		t.Error("ReadAllLimited accepted an oversized stream")
	}
	if b, err := ReadAllLimited(bytes.NewReader([]byte("ok")), 64); err != nil || string(b) != "ok" {
		t.Errorf("ReadAllLimited = %q, %v", b, err)
	}
	if err := s.Put(KindResult, key(1), []byte("fine")); err != nil {
		t.Errorf("small Put failed: %v", err)
	}
}
