package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

var (
	validMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	validLabelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Lint validates a Prometheus text exposition: every line must parse,
// every sample's metric must have matching # HELP and # TYPE lines
// that precede it, label syntax must be well-formed (including escape
// sequences), and sample values must be valid floats. It is the
// test-side counterpart of Exposition.WriteTo: tests run it over
// eoled's /metrics scrapes. Returns nil for a valid exposition, or an
// error naming the first offending line.
func Lint(exposition []byte) error {
	type meta struct{ help, typ bool }
	families := make(map[string]*meta)
	fam := func(name string) *meta {
		m, ok := families[name]
		if !ok {
			m = &meta{}
			families[name] = m
		}
		return m
	}

	sc := bufio.NewScanner(bytes.NewReader(exposition))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, _ := strings.Cut(rest, " ")
			if !validMetricName.MatchString(name) {
				return fmt.Errorf("line %d: HELP for invalid metric name %q", lineno, name)
			}
			m := fam(name)
			if m.help {
				return fmt.Errorf("line %d: duplicate HELP for %s", lineno, name)
			}
			m.help = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				return fmt.Errorf("line %d: TYPE without a type: %q", lineno, line)
			}
			if !validMetricName.MatchString(name) {
				return fmt.Errorf("line %d: TYPE for invalid metric name %q", lineno, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown metric type %q", lineno, typ)
			}
			m := fam(name)
			if m.typ {
				return fmt.Errorf("line %d: duplicate TYPE for %s", lineno, name)
			}
			m.typ = true
		case strings.HasPrefix(line, "#"):
			// Other comments are legal and ignored.
		default:
			name, err := lintSample(line)
			if err != nil {
				return fmt.Errorf("line %d: %v", lineno, err)
			}
			base := familyName(name)
			m, ok := families[base]
			if !ok || !m.help || !m.typ {
				return fmt.Errorf("line %d: sample %s before HELP/TYPE of %s", lineno, name, base)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for name, m := range families {
		if m.help != m.typ {
			return fmt.Errorf("metric %s: HELP/TYPE pair incomplete", name)
		}
	}
	return nil
}

// familyName strips the histogram sample suffixes so _bucket/_sum/
// _count lines are matched to their family's HELP/TYPE.
func familyName(sample string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(sample, suffix) {
			return strings.TrimSuffix(sample, suffix)
		}
	}
	return sample
}

// lintSample parses one sample line and returns the metric name.
func lintSample(line string) (string, error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", fmt.Errorf("malformed sample %q", line)
	}
	name := line[:i]
	if !validMetricName.MatchString(name) {
		return "", fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := lintLabels(rest)
		if err != nil {
			return "", fmt.Errorf("metric %s: %v", name, err)
		}
		rest = rest[end:]
	}
	if len(rest) == 0 || rest[0] != ' ' {
		return "", fmt.Errorf("metric %s: missing value separator", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", fmt.Errorf("metric %s: want value [timestamp], got %q", name, rest)
	}
	if _, err := parseValue(fields[0]); err != nil {
		return "", fmt.Errorf("metric %s: bad value %q", name, fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", fmt.Errorf("metric %s: bad timestamp %q", name, fields[1])
		}
	}
	return name, nil
}

// parseValue accepts floats plus the exposition spellings of the
// non-finite values.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "-Inf", "NaN", "Nan":
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}

// lintLabels validates a `{k="v",...}` block starting at s[0]=='{'
// and returns the index one past the closing brace.
func lintLabels(s string) (int, error) {
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		// Label name.
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j >= len(s) {
			return 0, fmt.Errorf("label without '='")
		}
		if !validLabelName.MatchString(s[i:j]) {
			return 0, fmt.Errorf("invalid label name %q", s[i:j])
		}
		i = j + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label %s: value not quoted", s[i-1:j])
		}
		i++ // past opening quote
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value")
			}
			if s[i] == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape in label value")
				}
				switch s[i+1] {
				case '\\', '"', 'n':
					i += 2
					continue
				default:
					return 0, fmt.Errorf("invalid escape \\%c in label value", s[i+1])
				}
			}
			if s[i] == '"' {
				i++
				break
			}
			i++
		}
		// After a value: ',' continues, '}' ends.
		switch {
		case i < len(s) && s[i] == ',':
			i++
		case i < len(s) && s[i] == '}':
			return i + 1, nil
		default:
			return 0, fmt.Errorf("expected ',' or '}' after label value")
		}
	}
}
