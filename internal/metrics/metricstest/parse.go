package metricstest

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"streamrel/internal/metrics"
)

// ParsedSample is one series line of a Prometheus text exposition:
// name, labels, and value. Histogram _bucket/_sum/_count lines parse as
// individual samples (the flat wire shape).
type ParsedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ID renders the parsed series identity the way metrics.Sample.ID does, so
// parsed scrapes compare against local Gather output.
func (p *ParsedSample) ID() string {
	labels := make([]metrics.Label, 0, len(p.Labels))
	for k, v := range p.Labels {
		labels = append(labels, metrics.Label{Key: k, Value: v})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	return (&metrics.Sample{Name: p.Name, Labels: labels}).ID()
}

// ParseExposition parses (and thereby validates) a Prometheus text-format
// scrape: HELP/TYPE comments, metric lines, label syntax, float values. It
// returns every sample line, or the first syntax error with its line
// number. The conventions tests and the cluster smoke use it to fail on
// malformed exposition from any /metrics endpoint.
func ParseExposition(r io.Reader) ([]ParsedSample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []ParsedSample
	typed := map[string]string{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
			}
			if kind == "TYPE" {
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("metrics: line %d: unknown TYPE %q", lineNo, rest)
				}
				if _, dup := typed[name]; dup {
					return nil, fmt.Errorf("metrics: line %d: duplicate TYPE for %q", lineNo, name)
				}
				typed[name] = rest
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseComment splits "# HELP name text" / "# TYPE name kind". Other
// comments pass through with kind "".
func parseComment(line string) (kind, name, rest string, err error) {
	body := strings.TrimPrefix(line, "#")
	body = strings.TrimLeft(body, " ")
	switch {
	case strings.HasPrefix(body, "HELP "):
		fields := strings.SplitN(body[len("HELP "):], " ", 2)
		if len(fields) == 0 || !validMetricName(fields[0]) {
			return "", "", "", fmt.Errorf("malformed HELP comment %q", line)
		}
		return "HELP", fields[0], "", nil
	case strings.HasPrefix(body, "TYPE "):
		fields := strings.Fields(body[len("TYPE "):])
		if len(fields) != 2 || !validMetricName(fields[0]) {
			return "", "", "", fmt.Errorf("malformed TYPE comment %q", line)
		}
		return "TYPE", fields[0], fields[1], nil
	default:
		return "", "", "", nil
	}
}

// parseSampleLine parses `name{k="v",…} value` (labels optional).
func parseSampleLine(line string) (ParsedSample, error) {
	s := ParsedSample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("malformed metric line %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " \t")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return s, fmt.Errorf("malformed metric line %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a {k="v",…} block starting at text[0]=='{' into dst,
// returning the index just past the closing brace.
func parseLabels(text string, dst map[string]string) (int, error) {
	i := 1
	for {
		// Allow {} and trailing comma tolerance is NOT given: match the
		// writer's exact shape.
		if i < len(text) && text[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(text) && isNameChar(text[i], i == start) {
			i++
		}
		if i == start || i >= len(text) || text[i] != '=' {
			return 0, fmt.Errorf("malformed label name")
		}
		key := text[start:i]
		i++ // '='
		if i >= len(text) || text[i] != '"' {
			return 0, fmt.Errorf("unquoted label value")
		}
		i++
		var val strings.Builder
		for i < len(text) && text[i] != '"' {
			if text[i] == '\\' {
				i++
				if i >= len(text) {
					return 0, fmt.Errorf("truncated escape")
				}
				switch text[i] {
				case '\\', '"':
					val.WriteByte(text[i])
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("bad escape \\%c", text[i])
				}
				i++
				continue
			}
			val.WriteByte(text[i])
			i++
		}
		if i >= len(text) {
			return 0, fmt.Errorf("unterminated label value")
		}
		i++ // closing quote
		if _, dup := dst[key]; dup {
			return 0, fmt.Errorf("duplicate label %q", key)
		}
		dst[key] = val.String()
		switch {
		case i < len(text) && text[i] == ',':
			i++
		case i < len(text) && text[i] == '}':
			return i + 1, nil
		default:
			return 0, fmt.Errorf("malformed label separator")
		}
	}
}

func validMetricName(name string) bool {
	for i := 0; i < len(name); i++ {
		if !isNameChar(name[i], i == 0) {
			return false
		}
	}
	return name != ""
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}
