package exp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo", PaperClaim: "claim",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"note"},
	}
	txt := tab.Format()
	for _, want := range []string{"X: demo", "claim", "333", "note:"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Format missing %q in:\n%s", want, txt)
		}
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "### X") {
		t.Errorf("Markdown malformed:\n%s", md)
	}
}

func TestFitHelpers(t *testing.T) {
	// y = 3x: slope 3.
	if s := FitSlope([]float64{1, 2, 3}, []float64{3, 6, 9}); s < 2.99 || s > 3.01 {
		t.Errorf("FitSlope = %v, want 3", s)
	}
	// y = x²: log-log slope 2.
	if s := LogLogSlope([]float64{2, 4, 8}, []float64{4, 16, 64}); s < 1.99 || s > 2.01 {
		t.Errorf("LogLogSlope = %v, want 2", s)
	}
	if r := BandRatio([]float64{2, 4, 3}); r != 2 {
		t.Errorf("BandRatio = %v, want 2", r)
	}
	if x := Crossover([]float64{1, 2, 3}, []float64{0, 1, 5}, []float64{2, 2, 2}); x != 3 {
		t.Errorf("Crossover = %v, want 3", x)
	}
	if x := Crossover([]float64{1, 2}, []float64{0, 0}, []float64{1, 1}); x != -1 {
		t.Errorf("Crossover = %v, want -1", x)
	}
}

func TestQuickExperimentsRun(t *testing.T) {
	s := Scale{Quick: true}
	for _, j := range battery {
		tab, err := j.run(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", j.id, err)
		}
		if tab.ID != j.id {
			t.Errorf("%s: table ID %q", j.id, tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", j.id)
		}
		if tab.PaperClaim == "" {
			t.Errorf("%s: missing paper claim", j.id)
		}
	}
}

func TestAllContextPartialFlush(t *testing.T) {
	// Pre-cancelled: no experiment starts; the battery returns an empty
	// set plus the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tabs, err := AllContext(ctx, Scale{Quick: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled AllContext err = %v, want context.Canceled", err)
	}
	if len(tabs) != 0 {
		t.Fatalf("pre-cancelled AllContext returned %d tables, want 0", len(tabs))
	}

	// Mid-battery cancel: the tables of every experiment that finished
	// are flushed in deterministic battery order — a subsequence of the
	// full battery's output — and no figure table is among them. Each
	// runner's deadline is half its own full wall time, so the critical
	// path dispatched first has usually finished and some tables flush.
	exercised := 0
	for name, run := range map[string]func(context.Context, Scale) ([]*Table, error){
		"AllContext": AllContext, "AllSequentialContext": AllSequentialContext,
	} {
		start := time.Now()
		full, err := run(context.Background(), Scale{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		order := make(map[string]int, len(full))
		for i, tb := range full {
			order[tb.ID] = i
		}
		ctx2, cancel2 := context.WithTimeout(context.Background(), time.Since(start)/2)
		tabs2, err2 := run(ctx2, Scale{Quick: true})
		cancel2()
		if err2 == nil {
			continue
		}
		exercised++
		if !errors.Is(err2, context.DeadlineExceeded) {
			t.Fatalf("%s err = %v, want context.DeadlineExceeded", name, err2)
		}
		last := -1
		for _, tb := range tabs2 {
			i, ok := order[tb.ID]
			if !ok {
				t.Fatalf("%s: partial flush contains unknown table %s", name, tb.ID)
			}
			if i >= len(experiments) {
				t.Fatalf("%s: partial flush contains figure table %s", name, tb.ID)
			}
			if i <= last {
				t.Fatalf("%s: partial flush out of battery order at %s", name, tb.ID)
			}
			last = i
		}
	}
	if exercised == 0 {
		t.Skip("quick battery finished inside the deadline; cancellation not exercised")
	}
}

func TestFiguresValidate(t *testing.T) {
	tabs, err := Figures()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 5 {
		t.Fatalf("got %d figure tables, want 5 (F1-F4 + F-D3)", len(tabs))
	}
	for _, tab := range tabs {
		for _, row := range tab.Rows {
			last := row[len(row)-1]
			if strings.HasPrefix(last, "NO") {
				t.Errorf("%s: validation failed: %v", tab.ID, row)
			}
		}
	}
}

func TestRenderFigure1(t *testing.T) {
	out := RenderFigure1(8)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8", len(lines))
	}
	for _, l := range lines {
		if len(l) != 8 {
			t.Fatalf("line %q length != 8", l)
		}
		if strings.Contains(l, ".") {
			t.Fatalf("uncovered cell in %q", l)
		}
	}
	// All five labels appear.
	joined := strings.Join(lines, "")
	for _, lbl := range "12345" {
		if !strings.ContainsRune(joined, lbl) {
			t.Errorf("label %c missing", lbl)
		}
	}
}

func TestRenderZigZag(t *testing.T) {
	out := RenderZigZag(16, 4, 4)
	if strings.Contains(out, ".") {
		t.Fatal("uncovered cell in zig-zag rendering")
	}
	for _, lbl := range "abcd" {
		if !strings.ContainsRune(out, lbl) {
			t.Errorf("band %c missing", lbl)
		}
	}
}

func TestRenderFigure4Slice(t *testing.T) {
	out := RenderFigure4Slice(8, 3)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8", len(lines))
	}
	if strings.Contains(out, ".") {
		t.Fatal("uncovered node in slice t=3")
	}
}

// E-LEV runs through UniDCContext, whose planning polls the context: a
// pre-cancelled context returns its error instead of a table, as E-T2
// does.
func TestLevelsHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func(context.Context, Scale) (*Table, error){
		"Levels": Levels, "T2": T2,
	} {
		tab, err := run(ctx, Scale{Quick: true})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a pre-cancelled context = (%v, %v), want context.Canceled", name, tab != nil, err)
		}
	}
}
