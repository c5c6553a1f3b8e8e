package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// README.md documents eoled by naming its flags and endpoints, and a
// change that adds, renames or removes one leaves the prose behind.
// Both directions are held: every flag defineFlags declares and every
// route newServer registers is named in the README, and every flag or
// /v1/ path the README's eoled sections name exists.
func TestReadmeNamesFlagsAndRoutes(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)

	flags := map[string]bool{}
	fs := flag.NewFlagSet("eoled", flag.ContinueOnError)
	defineFlags(fs)
	fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = true })
	src, err := os.ReadFile("server.go")
	if err != nil {
		t.Fatal(err)
	}
	var routes [][]string // path segments of every route(...) pattern
	for _, m := range regexp.MustCompile(`\broute\("[A-Z]+ (/[^"]+)"`).FindAllStringSubmatch(string(src), -1) {
		routes = append(routes, strings.Split(m[1], "/"))
		if !strings.Contains(readme, "`"+m[1]+"`") {
			t.Errorf("README.md does not name the route `%s`", m[1])
		}
	}
	if len(flags) != 17 || len(routes) != 13 {
		t.Fatalf("found %d flags and %d routes, want 17 and 13: the patterns rotted or eoled's surface changed; update the counts with the README", len(flags), len(routes))
	}
	for name := range flags {
		if !regexp.MustCompile("`-" + name + "[`= ]").MatchString(readme) {
			t.Errorf("README.md does not name the flag `-%s`", name)
		}
	}

	// The sections that document eoled; the others name other
	// commands' flags.
	var doc strings.Builder
	for _, sec := range strings.Split(readme, "\n## ")[1:] {
		title, _, _ := strings.Cut(sec, "\n")
		for _, about := range []string{"eoled", "Cluster mode", "Observability"} {
			if strings.HasPrefix(title, about) {
				doc.WriteString(sec)
			}
		}
	}
	if doc.Len() == 0 {
		t.Fatal("README.md has none of the eoled sections")
	}
	// A flag is an inline code span that opens with a dash, or a dashed
	// word on a line that starts eoled.
	var named []string
	for _, m := range regexp.MustCompile("`-([a-z][a-z-]*)[`= ]").FindAllStringSubmatch(doc.String(), -1) {
		named = append(named, m[1])
	}
	for _, line := range strings.Split(doc.String(), "\n") {
		if _, args, ok := strings.Cut(line, "./cmd/eoled "); ok {
			for _, m := range regexp.MustCompile(`(?:^| )-([a-z][a-z-]*)`).FindAllStringSubmatch(args, -1) {
				named = append(named, m[1])
			}
		}
	}
	for _, name := range named {
		if !flags[name] {
			t.Errorf("README.md names the eoled flag -%s, which does not exist", name)
		}
	}
	// A path is anything under /v1/; it may stop short of a full route
	// ("/v1/artifacts/...") and carries example IDs where the pattern
	// has wildcards.
	for _, p := range regexp.MustCompile(`/v1/[A-Za-z0-9_{}/-]*`).FindAllString(doc.String(), -1) {
		segs := strings.Split(strings.TrimRight(p, "/"), "/")
		if !matchesRoute(segs, routes) {
			t.Errorf("README.md names %s, which no route serves", p)
		}
	}
}

// matchesRoute reports whether segs is a route's path or a leading part
// of one, a {wildcard} segment matching anything.
func matchesRoute(segs []string, routes [][]string) bool {
	for _, r := range routes {
		if len(segs) > len(r) {
			continue
		}
		ok := true
		for i, s := range segs {
			if r[i] != s && !strings.HasPrefix(r[i], "{") {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
