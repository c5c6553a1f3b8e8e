package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"eole/internal/simsvc"
)

// cellReply is one cell of a sweep or cluster-sweep reply.
type cellReply struct {
	Config   string          `json:"config"`
	Workload string          `json:"workload"`
	Report   json.RawMessage `json:"report"`
	Error    string          `json:"error"`
}

// parseCells splits a reply into its cells. /v1/simulate answers with
// the bare report, which names its own config and workload.
func parseCells(w workload, body []byte) ([]cellReply, error) {
	if w.Endpoint == "/v1/simulate" {
		var id struct {
			Config    string `json:"config"`
			Benchmark string `json:"benchmark"`
		}
		if err := json.Unmarshal(body, &id); err != nil {
			return nil, err
		}
		return []cellReply{{Config: id.Config, Workload: id.Benchmark, Report: body}}, nil
	}
	var resp struct {
		Results []cellReply `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// simulateCell returns the in-process report of one cell as compact
// JSON, the form served reports are compared in.
func simulateCell(req simsvc.Request) ([]byte, error) {
	r, err := simulate(req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// checkReply is the deep check of one kept reply: the expected cell
// count and labels in order, and for w.VerifyCells seeded cells the
// report simulated again in-process must equal the served one byte for
// byte (both compacted: eoled indents its replies).
func checkReply(w workload, o op, body []byte, rng *rand.Rand) error {
	cells, err := parseCells(w, body)
	if err != nil {
		return fmt.Errorf("reply does not parse: %w", err)
	}
	if len(cells) != len(o.Reqs) {
		return fmt.Errorf("reply holds %d cells, want %d", len(cells), len(o.Reqs))
	}
	for i, c := range cells {
		want := o.Reqs[i]
		if c.Config != want.Config.Label() || c.Workload != want.Workload {
			return fmt.Errorf("cell %d is %s on %s, want %s on %s", i, c.Config, c.Workload, want.Config.Label(), want.Workload)
		}
		if c.Error != "" || len(c.Report) == 0 {
			return fmt.Errorf("cell %d has no report (error %q)", i, c.Error)
		}
	}
	for _, i := range rng.Perm(len(cells))[:min(w.VerifyCells, len(cells))] {
		want, err := simulateCell(o.Reqs[i])
		if err != nil {
			return fmt.Errorf("cell %d: in-process run: %w", i, err)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, cells[i].Report); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			return fmt.Errorf("cell %d (%s on %s, k=%d): served report differs from the in-process one", i, cells[i].Config, cells[i].Workload, o.K)
		}
	}
	return nil
}

// verifyWindow runs after the window, never during it. Every reply of
// a SameOp workload must hash to the reference; for the others every
// kept reply gets the deep check. It marks failing replies and returns
// how many it looked at.
func verifyWindow(w workload, ops *opList, win *window, ref reply, seed int64) (checked int) {
	if w.SameOp {
		for i := range win.replies {
			r := &win.replies[i]
			if r.err == nil && r.sum != ref.sum {
				r.err = fmt.Errorf("op %d: body differs from the prime reply", r.index)
			}
		}
		return len(win.replies)
	}
	var kept []*reply
	for i := range win.replies {
		if r := &win.replies[i]; r.err == nil && r.body != nil {
			kept = append(kept, r)
		}
	}
	jobs := make(chan *reply)
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				rng := rand.New(rand.NewSource(seed + int64(r.index)))
				if err := checkReply(w, ops.at(r.index), r.body, rng); err != nil {
					r.err = fmt.Errorf("op %d: %w", r.index, err)
				}
				r.body = nil
			}
		}()
	}
	for _, r := range kept {
		jobs <- r
	}
	close(jobs)
	wg.Wait()
	return len(kept)
}
