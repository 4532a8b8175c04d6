package workload

import (
	"testing"
	"time"
)

func TestClickstreamShape(t *testing.T) {
	g := NewClickstream(ClickConfig{Seed: 1, URLs: 50, EventsPerSec: 1000})
	rows := g.Take(5000)
	counts := map[string]int{}
	var last int64 = -1
	for _, r := range rows {
		if len(r) != 3 {
			t.Fatal("arity")
		}
		ts := r[1].TimestampMicros()
		if ts < last {
			t.Fatal("timestamps must be non-decreasing")
		}
		last = ts
		counts[r[0].Str()]++
	}
	// Zipf skew: the hottest URL should dominate the median URL.
	max, total := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(total) < 0.10 {
		t.Fatalf("distribution not skewed: max share %.3f", float64(max)/float64(total))
	}
	// Rate: 5000 events at 1000/s spans roughly 5 seconds of stream time.
	span := rows[len(rows)-1][1].TimestampMicros() - rows[0][1].TimestampMicros()
	if span < 3_000_000 || span > 8_000_000 {
		t.Fatalf("span = %dus, expected ~5s", span)
	}
}

func TestClickstreamDeterminism(t *testing.T) {
	a := NewClickstream(ClickConfig{Seed: 7}).Take(100)
	b := NewClickstream(ClickConfig{Seed: 7}).Take(100)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("row %d differs under same seed", i)
		}
	}
	c := NewClickstream(ClickConfig{Seed: 8}).Take(100)
	same := 0
	for i := range a {
		if a[i].Equal(c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSecurityEvents(t *testing.T) {
	g := NewSecurityEvents(SecurityConfig{Seed: 3, Start: time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)})
	rows := g.Take(2000)
	deny := 0
	var last int64 = -1
	for _, r := range rows {
		if len(r) != 5 {
			t.Fatal("arity")
		}
		ts := r[0].TimestampMicros()
		if ts < last {
			t.Fatal("order")
		}
		last = ts
		switch r[3].Str() {
		case "deny":
			deny++
		case "allow":
		default:
			t.Fatalf("bad action %q", r[3].Str())
		}
	}
	if deny == 0 || deny == len(rows) {
		t.Fatalf("deny count %d of %d is degenerate", deny, len(rows))
	}
	if g.Now() <= rows[0][0].TimestampMicros() {
		t.Fatal("Now should track stream time")
	}
}

func TestImpressions(t *testing.T) {
	g := NewImpressions(ImpressionConfig{Seed: 5, Campaigns: 10})
	rows := g.Take(1000)
	for _, r := range rows {
		if c := r[1].Int(); c < 0 || c >= 10 {
			t.Fatalf("campaign out of range: %d", c)
		}
		if r[3].Int() < 100 {
			t.Fatal("cost floor")
		}
	}
	if NewImpressions(ImpressionConfig{Seed: 5, Campaigns: 10}).Take(1)[0].String() != rows[0].String() {
		t.Fatal("determinism")
	}
}

func TestSchemasMatchRows(t *testing.T) {
	click := NewClickstream(ClickConfig{Seed: 1})
	if len(click.Schema()) != len(click.Next()) {
		t.Fatal("clickstream schema")
	}
	sec := NewSecurityEvents(SecurityConfig{Seed: 1})
	if len(sec.Schema()) != len(sec.Next()) {
		t.Fatal("security schema")
	}
	imp := NewImpressions(ImpressionConfig{Seed: 1})
	if len(imp.Schema()) != len(imp.Next()) {
		t.Fatal("impressions schema")
	}
}
