// Package experiments contains one runner per table and figure of the
// paper's evaluation (see DESIGN.md §4 for the index). Each runner rebuilds
// the workload mix, drives every strategy under the Ah-Q controller on the
// simulated node, and renders the same rows/series the paper reports as
// plain-text tables (and CSV, for the heatmap/timeline figures).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// RunConfig parameterises a runner invocation.
type RunConfig struct {
	// Seed drives all randomness; equal seeds give identical results.
	Seed int64
	// Quick shortens warm-up and measurement horizons (used by unit
	// tests); the full horizons are used by default.
	Quick bool
	// Parallel bounds how many simulation runs a runner executes
	// simultaneously; <= 0 means runtime.NumCPU(), 1 runs sequentially.
	// Results are assembled in declaration order, so output is identical
	// at every parallelism level.
	Parallel int
	// FleetNodeCacheOff disables the ext-fleet sweep's node-outcome
	// cache (cluster.NodeCache), forcing every placement to re-simulate
	// node contents other placements already ran. The cache is bit-exact
	// by construction, so this changes wall time only; the CI smoke pins
	// stdout equality on vs off.
	FleetNodeCacheOff bool
}

// Result is a runner's output: one or more rendered tables.
type Result struct {
	ID     string
	Title  string
	Tables []Table
}

// Table is a printable grid with a caption and optional footnotes.
type Table struct {
	Caption string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Freeform is pre-rendered text (ASCII heatmaps, sparklines) printed
	// after the grid.
	Freeform string
}

// AddRow appends a row built from Sprint-ed cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	if t.Caption != "" {
		fmt.Fprintf(w, "%s\n", t.Caption)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if t.Freeform != "" {
		fmt.Fprintln(w, t.Freeform)
	}
}

// Fprint renders all of a result's tables.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n\n", r.ID, r.Title)
	for i := range r.Tables {
		r.Tables[i].Fprint(w)
		fmt.Fprintln(w)
	}
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Runner regenerates one paper artifact.
type Runner func(cfg RunConfig) (*Result, error)

// Descriptor registers a runner under its experiment id.
type Descriptor struct {
	ID    string
	Title string
	Run   Runner
}

var registry = map[string]Descriptor{}

// register adds a descriptor; duplicate ids are a programming error.
func register(d Descriptor) {
	if _, dup := registry[d.ID]; dup {
		panic("experiments: duplicate id " + d.ID)
	}
	registry[d.ID] = d
}

// Lookup returns the descriptor for an experiment id.
func Lookup(id string) (Descriptor, bool) {
	d, ok := registry[id]
	return d, ok
}

// All returns every registered descriptor sorted by id.
func All() []Descriptor {
	out := make([]Descriptor, 0, len(registry))
	for _, d := range registry {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
