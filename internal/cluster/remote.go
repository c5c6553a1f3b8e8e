package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"eole"
)

// RemoteSweep runs the (cfgs × wls) sweep on the eoled at server — a
// single node, or a coordinator that shards it across its fleet — as
// one POST /v1/sweep with every config inline, and returns the reports
// in simsvc.Cross order, each labeled as its config asks. The cells are
// the ones simsvc.ApplySampling(simsvc.Cross(cfgs, wls, warmup,
// measure), sampling) builds locally, so the reports equal a local
// sweep's. Failed cells leave nil slots and are joined into the error
// as simsvc.Sweep.Wait joins them. warmup and measure must be nonzero:
// the server fills a zero from its own defaults.
func RemoteSweep(ctx context.Context, server string, cfgs []eole.Config, wls []string, warmup, measure uint64, sampling *eole.SamplingSpec) ([]*eole.Report, error) {
	body, err := json.Marshal(struct {
		Configs   []eole.Config      `json:"configs"`
		Workloads []string           `json:"workloads"`
		Warmup    uint64             `json:"warmup"`
		Measure   uint64             `json:"measure"`
		Sampling  *eole.SamplingSpec `json:"sampling,omitempty"`
	}{cfgs, wls, warmup, measure, sampling})
	if err != nil {
		return nil, err
	}
	api := &client{base: normalizeURL(server), http: http.DefaultClient}
	reply, err := api.post(ctx, "/v1/sweep", body)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Results []struct {
			Config   string       `json:"config"`
			Workload string       `json:"workload"`
			Report   *eole.Report `json:"report"`
			Error    string       `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(reply, &resp); err != nil {
		return nil, fmt.Errorf("POST /v1/sweep: bad body: %w", err)
	}
	if want := len(cfgs) * len(wls); len(resp.Results) != want {
		return nil, fmt.Errorf("POST /v1/sweep: %d cells for a %d-cell sweep", len(resp.Results), want)
	}
	reports := make([]*eole.Report, len(resp.Results))
	var errs []error
	for i, cell := range resp.Results {
		if cell.Report == nil {
			errs = append(errs, fmt.Errorf("%s on %s: %s", cell.Config, cell.Workload, cell.Error))
			continue
		}
		reports[i] = cell.Report
	}
	return reports, errors.Join(errs...)
}
