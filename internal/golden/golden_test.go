package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps what Check reports instead of
// failing the test that runs it.
type recorder struct {
	testing.TB
	msgs  []string
	fatal bool
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

func (r *recorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	r.fatal = true
	runtime.Goexit()
}

// check runs Check on its own goroutine, so a Fatalf ends only that.
func check(t *testing.T, path string, got []byte) *recorder {
	r := &recorder{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Check(r, path, got)
	}()
	<-done
	return r
}

func (r *recorder) says(t *testing.T, want string) {
	t.Helper()
	for _, m := range r.msgs {
		if strings.Contains(m, want) {
			return
		}
	}
	t.Errorf("no report contains %q; got %q", want, r.msgs)
}

func TestCheckMismatch(t *testing.T) {
	t.Setenv("EOLE_UPDATE_GOLDEN", "")
	many := strings.Repeat("x\n", maxDiffs+5)
	for _, tc := range []struct {
		name, golden, got string
		want              []string
	}{
		{"json leaf", `{"gzip": {"cycles": 100, "ipc": 1.5}, "mcf": {"cycles": 7}}`,
			`{"gzip": {"cycles": 101, "ipc": 1.5}, "namd": {"cycles": 7}}`,
			[]string{"gzip.cycles: golden 100, got 101", "mcf: golden map[cycles:7], missing from output", "namd: not in golden, got map[cycles:7]"}},
		{"text line", "a\nb\nc\n", "a\nB\nc\n", []string{"line 2:\n  golden b\n  got    B"}},
		{"trailing newline", "a\n", "a", []string{"line 2:\n  golden \n  got    (end of file)"}},
		{"json reformatted", `{"a": 1}`, `{"a":1}`, []string{`line 1:`}},
		{"many lines", many, strings.ToUpper(many), []string{"line 20:", "... and 5 more"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.golden")
			if err := os.WriteFile(path, []byte(tc.golden), 0o644); err != nil {
				t.Fatal(err)
			}
			r := check(t, path, []byte(tc.got))
			if r.fatal {
				t.Fatalf("fatal on a mismatch: %q", r.msgs)
			}
			for _, w := range append(tc.want, path+" drifted") {
				r.says(t, w)
			}
		})
	}
}

func TestCheckMissingFileNamesTheVariable(t *testing.T) {
	t.Setenv("EOLE_UPDATE_GOLDEN", "")
	r := check(t, filepath.Join(t.TempDir(), "absent.json"), []byte("{}\n"))
	if !r.fatal {
		t.Fatal("a missing golden did not stop the test")
	}
	r.says(t, "EOLE_UPDATE_GOLDEN")
}

func TestCheckUpdateWritesThenPasses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new", "x.json")
	got := []byte(`{"cycles": 100}` + "\n")
	t.Setenv("EOLE_UPDATE_GOLDEN", "1")
	if r := check(t, path, got); len(r.msgs) > 0 {
		t.Fatalf("update reported %q", r.msgs)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != string(got) {
		t.Fatalf("update wrote %q (%v), want %q", b, err, got)
	}
	t.Setenv("EOLE_UPDATE_GOLDEN", "")
	if r := check(t, path, got); len(r.msgs) > 0 {
		t.Fatalf("the written golden does not pass: %q", r.msgs)
	}
}

func TestCheckUpdateReportsWriteErrors(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("EOLE_UPDATE_GOLDEN", "1")
	// A directory cannot be made under a file, nor a file written over
	// a directory.
	for _, path := range []string{filepath.Join(file, "x.golden"), dir} {
		if r := check(t, path, nil); !r.fatal {
			t.Errorf("writing %s: no fatal, reports %q", path, r.msgs)
		}
	}
}
