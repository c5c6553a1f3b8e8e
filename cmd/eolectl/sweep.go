package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"eole"
	"eole/internal/jobs"
)

// cmdSweep submits a sweep as an async job and follows its event
// stream: one progress line per cell on stderr as each finishes, the
// final per-cell report table (or, with -o json, the cell array) on
// stdout in deterministic cell order. -detach prints the job id and
// returns immediately; `eolectl jobs cancel` takes it from there.
func cmdSweep(ctx context.Context, g *globalOpts, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	configs := fs.String("configs", "", "comma-separated configuration names")
	gridPath := fs.String("grid", "", `JSON grid file ({"base_name":...,"axes":[...]})`)
	workloads := fs.String("workloads", "", "comma-separated workload names")
	warmup := fs.Uint64("warmup", 0, "warm-up µ-ops per cell (0: server default)")
	measure := fs.Uint64("measure", 0, "measured µ-ops per cell (0: server default)")
	detach := fs.Bool("detach", false, "submit the job and print its id without following")
	if err := fs.Parse(args); err != nil {
		return usagef("sweep: %v", err)
	}
	if fs.NArg() > 0 {
		return usagef("sweep: unexpected argument %q", fs.Arg(0))
	}
	if *configs == "" && *gridPath == "" {
		return usagef("sweep: need -configs and/or -grid")
	}
	if *workloads == "" {
		return usagef("sweep: need -workloads")
	}

	// The body is the /v1/jobs sweep form; the grid file is passed
	// through raw so the server's strict decoder is the one validator.
	body := map[string]any{
		"workloads": splitComma(*workloads),
	}
	if *configs != "" {
		body["configs"] = splitComma(*configs)
	}
	if *gridPath != "" {
		b, err := os.ReadFile(*gridPath)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		body["grid"] = json.RawMessage(b)
	}
	if *warmup > 0 {
		body["warmup"] = *warmup
	}
	if *measure > 0 {
		body["measure"] = *measure
	}

	server, err := g.resolveServer()
	if err != nil {
		return err
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	c := newClient(server, g.timeout)
	created, err := c.Create(ctx, payload)
	if err != nil {
		return err
	}
	if *detach {
		fmt.Fprintln(stdout, created.ID)
		return nil
	}
	fmt.Fprintf(stderr, "job %s: %d cells\n", created.ID, created.CellsTotal)

	cells := make([]cellOutcome, created.CellsTotal)
	seenCells := 0
	var terminal jobs.Event
	err = c.Follow(ctx, created.ID, func(ev jobs.Event) error {
		switch ev.Type {
		case jobs.EventCell:
			cell := ev.Cell
			if cell == nil || cell.Index < 0 || cell.Index >= len(cells) {
				return fmt.Errorf("cell event out of range: %+v", ev)
			}
			// The client hands the report through as bytes; this is
			// the end that reads it.
			var report *eole.Report
			if b := cell.Encoded.Bytes(); b != nil {
				report = new(eole.Report)
				if err := json.Unmarshal(b, report); err != nil {
					return fmt.Errorf("cell %d: bad report: %w", cell.Index, err)
				}
			}
			cells[cell.Index] = cellOutcome{
				Config:   cell.Config,
				Workload: cell.Workload,
				Cached:   cell.Cached,
				Report:   report,
				Error:    cell.Error,
			}
			seenCells++
			line := fmt.Sprintf("[%d/%d] %s/%s", seenCells, len(cells), cell.Config, cell.Workload)
			switch {
			case cell.Error != "":
				line += " error: " + cell.Error
			case report != nil:
				line += fmt.Sprintf(" ipc=%.3f", report.IPC)
			}
			if cell.Cached {
				line += " (cached)"
			}
			fmt.Fprintln(stderr, line)
		case jobs.EventDone:
			terminal = ev
		}
		return nil
	})
	if ctx.Err() != nil {
		// Follow cancels a job it abandons, so the workers are not left
		// burning time on a sweep nobody is waiting for.
		return fmt.Errorf("interrupted (job %s canceled)", created.ID)
	}
	if err != nil {
		return err
	}

	if g.output == "json" {
		if err := printJSON(stdout, cells); err != nil {
			return err
		}
	} else if err := renderSweepTable(stdout, cells); err != nil {
		return err
	}
	switch terminal.State {
	case jobs.StateDone:
		return nil
	case jobs.StateFailed:
		return fmt.Errorf("job %s failed: %d of %d cells errored", created.ID, terminal.Failed, terminal.Total)
	case jobs.StateCanceled:
		return fmt.Errorf("job %s was canceled after %d of %d cells", created.ID, terminal.Completed, terminal.Total)
	default:
		return fmt.Errorf("job %s ended in unexpected state %q", created.ID, terminal.State)
	}
}

func splitComma(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
