package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ParseBool parses the SQL spellings of boolean literals.
func ParseBool(s string) (Datum, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "t", "true", "yes", "on", "1":
		return True, nil
	case "f", "false", "no", "off", "0":
		return False, nil
	}
	return Null, fmt.Errorf("types: invalid boolean %q", s)
}

func parseIntStrict(s string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("types: invalid integer %q", s)
	}
	return v, nil
}

func parseFloatStrict(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("types: invalid float %q", s)
	}
	return v, nil
}

// timestampLayouts lists the accepted timestamp spellings, most specific
// first. All parse in UTC.
var timestampLayouts = []string{
	"2006-01-02 15:04:05.999999",
	"2006-01-02 15:04:05",
	"2006-01-02 15:04",
	"2006-01-02",
	time.RFC3339Nano,
	time.RFC3339,
}

// ParseTimestamp parses a timestamp literal in one of the accepted layouts.
func ParseTimestamp(s string) (Datum, error) {
	s = strings.TrimSpace(s)
	for _, layout := range timestampLayouts {
		if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			return NewTimestamp(t), nil
		}
	}
	return Null, fmt.Errorf("types: invalid timestamp %q", s)
}

// intervalUnits maps unit spellings (singular and plural) to microseconds.
var intervalUnits = map[string]int64{
	"microsecond": 1,
	"us":          1,
	"millisecond": 1000,
	"ms":          1000,
	"second":      1_000_000,
	"sec":         1_000_000,
	"s":           1_000_000,
	"minute":      60_000_000,
	"min":         60_000_000,
	"m":           60_000_000,
	"hour":        3_600_000_000,
	"h":           3_600_000_000,
	"day":         86_400_000_000,
	"d":           86_400_000_000,
	"week":        7 * 86_400_000_000,
	"w":           7 * 86_400_000_000,
}

// ParseInterval parses interval literals of the form used in the paper's
// window clauses: "5 minutes", "1 week", "1 hour 30 minutes",
// "250 milliseconds". A leading '-' negates the whole interval.
func ParseInterval(s string) (Datum, error) {
	text := strings.TrimSpace(strings.ToLower(s))
	neg := false
	if strings.HasPrefix(text, "-") {
		neg = true
		text = strings.TrimSpace(text[1:])
	}
	fields := strings.Fields(text)
	if len(fields) == 0 || len(fields)%2 != 0 {
		return Null, fmt.Errorf("types: invalid interval %q", s)
	}
	sign := 1.0
	if neg {
		sign = -1
	}
	var total int64
	for i := 0; i < len(fields); i += 2 {
		n, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Null, fmt.Errorf("types: invalid interval %q: bad number %q", s, fields[i])
		}
		unit := strings.TrimSuffix(fields[i+1], "s")
		// "us" and "ms" end in s but are not plurals.
		if fields[i+1] == "us" || fields[i+1] == "ms" || fields[i+1] == "s" {
			unit = fields[i+1]
		}
		us, ok := intervalUnits[unit]
		if !ok {
			return Null, fmt.Errorf("types: invalid interval %q: unknown unit %q", s, fields[i+1])
		}
		// The sign goes on each part so that the most negative interval,
		// whose magnitude no int64 holds, parses as FormatInterval prints it.
		part := sign * n * float64(us)
		sum := total + int64(part)
		if !(part >= math.MinInt64 && part < math.MaxInt64) || // NaN too
			int64(part) > 0 && sum < total || int64(part) < 0 && sum > total {
			return Null, fmt.Errorf("types: interval %q out of range", s)
		}
		total = sum
	}
	return NewIntervalMicros(total), nil
}

// FormatInterval renders a microsecond count in the same unit vocabulary
// ParseInterval accepts, choosing the largest exact unit.
func FormatInterval(us int64) string {
	if us == 0 {
		return "0 seconds"
	}
	neg, rest := "", uint64(us)
	if us < 0 {
		neg, rest = "-", -rest
	}
	type unit struct {
		name string
		us   uint64
	}
	units := []unit{
		{"week", 7 * 86_400_000_000},
		{"day", 86_400_000_000},
		{"hour", 3_600_000_000},
		{"minute", 60_000_000},
		{"second", 1_000_000},
		{"millisecond", 1000},
		{"microsecond", 1},
	}
	var parts []string
	for _, u := range units {
		if rest >= u.us {
			n := rest / u.us
			rest -= n * u.us
			label := u.name
			if n != 1 {
				label += "s"
			}
			parts = append(parts, fmt.Sprintf("%d %s", n, label))
		}
	}
	return neg + strings.Join(parts, " ")
}

// ParseLiteral parses a string into the given type; used by loaders and the
// CSV-ish ingest path.
func ParseLiteral(s string, t Type) (Datum, error) {
	switch t {
	case TypeBool:
		return ParseBool(s)
	case TypeInt:
		v, err := parseIntStrict(s)
		if err != nil {
			return Null, err
		}
		return NewInt(v), nil
	case TypeFloat:
		v, err := parseFloatStrict(s)
		if err != nil {
			return Null, err
		}
		return NewFloat(v), nil
	case TypeString:
		return NewString(s), nil
	case TypeTimestamp:
		return ParseTimestamp(s)
	case TypeInterval:
		return ParseInterval(s)
	}
	return Null, fmt.Errorf("types: cannot parse literal of type %s", t)
}
