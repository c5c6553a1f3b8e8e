package main

import "eole"

// sweepResult and sweepResponse are the shape of a /v1/sweep reply as
// a client decodes it (the server stitches it, see stitch.go): one cell
// of the grid, with exactly one of Report/Error set.
type sweepResult struct {
	Config   string       `json:"config"`
	Workload string       `json:"workload"`
	Cached   bool         `json:"cached"`
	Report   *eole.Report `json:"report,omitempty"`
	Error    string       `json:"error,omitempty"`
}

type sweepResponse struct {
	Results []sweepResult `json:"results"`
}
