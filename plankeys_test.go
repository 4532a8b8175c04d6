package streamrel

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// planKeyCase is one continuous query of testdata/plankeys.json with the
// three keys the parent commit (5f50041) planned for it.
type planKeyCase struct {
	SQL  string `json:"sql"` // a SELECT, or the CREATE STREAM … AS that holds it
	Args []struct {
		T uint8  `json:"t"`
		V string `json:"v"`
	} `json:"args"`
	Fingerprint string `json:"fingerprint"`
	PostKey     string `json:"post_key"`
	StateKey    string `json:"state_key"`
}

// TestPlanKeysGolden pins which continuous queries share a window-state store
// (Fingerprint, and WindowState's key) and a post stage (PostKey). The file
// was recorded at the parent of the commit that gave internal/sql its one
// printer, by a copy of that tree whose SubscribeArgs and createDerivedStream
// wrote (DDL so far, statement, keys) for every CQ `go test . ./internal/experiments`
// plans — the SQL suite, the equivalence and plan-sharing suites,
// fuzzStoreQueries, E1–E16 — at most three per statement shape. Every key must
// be byte-identical today but for the two places the parent's key text was
// not SQL: the ORDER BY suffix, which it spelled " desc"/" nf"/" nl" and is
// rewritten here, and the enrichment post block, which it printed with %v
// (every one holds "#pre", a name only quoting can spell) and is compared by
// which CQs it groups together. No recorded key holds a quoted identifier or
// a temporal literal, the other two things the parent printed as text that
// did not parse. Since windows whose VISIBLE is not a multiple of ADVANCE keep
// a paired store, the three such CQs recorded with an empty state key carry
// <fingerprint>@<ADVANCE>+<offset>, and the last context — VISIBLE below
// ADVANCE, two VISIBLEs of one remainder, an enrichment join — was recorded
// then. Since ROWS and SLICES windows keep a store, the sixteen such CQs
// recorded with an empty state key carry <fingerprint>@<ADVANCE>R or @1S,
// with +<offset> when paired; every other key is the parent's.
func TestPlanKeysGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/plankeys.json")
	if err != nil {
		t.Fatal(err)
	}
	var contexts []struct {
		DDL []string      `json:"ddl"`
		CQs []planKeyCase `json:"cqs"`
	}
	if err := json.Unmarshal(raw, &contexts); err != nil {
		t.Fatal(err)
	}
	orderSuffix := regexp.MustCompile(`( desc)?( nf| nl)?;`)
	spell := strings.NewReplacer(" desc", " DESC", " nf", " NULLS FIRST", " nl", " NULLS LAST")
	// was/now group the enrichment CQs by post key, then and now.
	was, now := map[string][]string{}, map[string][]string{}
	n := 0
	for _, ctx := range contexts {
		e, err := Open(Config{SysMonInterval: time.Hour}) // the sys.* streams exist
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		for _, ddl := range ctx.DDL {
			mustExec(t, e, ddl)
		}
		for _, c := range ctx.CQs {
			n++
			args := make([]Value, len(c.Args))
			for i, a := range c.Args {
				if args[i], err = types.ParseLiteral(a.V, types.Type(a.T)); err != nil {
					t.Fatal(err)
				}
			}
			stmt, err := sql.ParseArgs(c.SQL, args)
			if err != nil {
				t.Fatalf("%s: %v", c.SQL, err)
			}
			sel, _ := stmt.(*sql.Select)
			if d, ok := stmt.(*sql.CreateDerivedStream); ok {
				sel = d.Query
			}
			p, err := e.planner.BuildSelect(sel)
			if err != nil {
				t.Fatalf("%s: %v", c.SQL, err)
			}
			var got planKeyCase
			got.StateKey, _ = p.WindowState(plan.StateAuto)
			if p.StreamAgg != nil {
				got.Fingerprint, got.PostKey = p.StreamAgg.Fingerprint, p.StreamAgg.PostKey
			}
			want := c
			if head, order, ok := strings.Cut(want.PostKey, "|O:"); ok {
				want.PostKey = head + "|O:" + orderSuffix.ReplaceAllStringFunc(order, spell.Replace)
			}
			if head, _, ok := strings.Cut(want.PostKey, "|E:"); ok {
				id := strings.Join(ctx.DDL, ";") + "\n" + c.SQL
				was[want.PostKey] = append(was[want.PostKey], id)
				now[got.PostKey] = append(now[got.PostKey], id)
				want.PostKey, got.PostKey = head, strings.SplitN(got.PostKey, "|E:", 2)[0]
			}
			if got.Fingerprint != want.Fingerprint || got.PostKey != want.PostKey || got.StateKey != want.StateKey {
				t.Errorf("%s\n got %q %q %q\nwant %q %q %q", c.SQL,
					got.Fingerprint, got.PostKey, got.StateKey, want.Fingerprint, want.PostKey, want.StateKey)
			}
		}
	}
	if n < 140 || len(was) < 10 {
		t.Fatalf("%d CQs, %d enrichment post keys: the golden file shrank", n, len(was))
	}
	groups := func(m map[string][]string) map[string]bool {
		out := map[string]bool{}
		for _, ids := range m {
			out[strings.Join(ids, "\x00")] = true
		}
		return out
	}
	for g := range groups(was) {
		if !groups(now)[g] {
			t.Errorf("enrichment CQs that shared a post stage no longer do, or share it with others:\n%s", g)
		}
	}
	if len(was) != len(now) {
		t.Errorf("%d enrichment post stages, were %d", len(now), len(was))
	}
}
