package main

import (
	"bytes"
	"encoding/json"
	"io"
	"text/tabwriter"
)

// printRawJSON re-indents the server's own body for -o json output:
// lossless (every field the server sent) and stable (the server
// marshals with a fixed field order).
func printRawJSON(w io.Writer, raw []byte) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err := w.Write(buf.Bytes())
	return err
}

// newTable returns a tabwriter configured the same way for every
// command, so all eolectl tables line up identically.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}
