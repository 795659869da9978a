package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"accals"
)

// record is the determinism record of one job: the SHA-256 of its final
// BLIF and its quality numbers. Two runs of the same job under the same
// seed must produce equal records.
type record struct {
	Job    string  `json:"job"`
	Set    int     `json:"set"`
	Seed   int64   `json:"seed"`
	SHA256 string  `json:"sha256"`
	Ands   int     `json:"ands"`
	Area   float64 `json:"area"`
	Delay  float64 `json:"delay"`
	Error  float64 `json:"error"`
	Rounds int     `json:"rounds"`
	Stop   string  `json:"stop"`
}

// blifText is the job's final netlist as BLIF: the daemon's result
// verbatim, the library result's encoding otherwise.
func blifText(o outcome) (string, error) {
	if o.BLIF != "" {
		return o.BLIF, nil
	}
	var sb strings.Builder
	if err := accals.WriteBLIF(&sb, o.Final); err != nil {
		return "", fmt.Errorf("encode BLIF: %w", err)
	}
	return sb.String(), nil
}

// makeRecord builds the determinism record of a checked outcome.
func makeRecord(j job, t task, o outcome) (record, error) {
	text, err := blifText(o)
	if err != nil {
		return record{}, err
	}
	// The quality numbers come from the parsed BLIF, so a library
	// result and a daemon result of the same netlist agree.
	g, err := accals.ReadBLIF(strings.NewReader(text))
	if err != nil {
		return record{}, fmt.Errorf("parse BLIF: %w", err)
	}
	sum := sha256.Sum256([]byte(text))
	area, delay := accals.AreaDelay(g)
	return record{
		Job:    j.name(),
		Set:    t.Set,
		Seed:   t.Seed,
		SHA256: hex.EncodeToString(sum[:]),
		Ands:   g.NumAnds(),
		Area:   area,
		Delay:  delay,
		Error:  o.Error,
		Rounds: o.Rounds,
		Stop:   o.Stop,
	}, nil
}

// gate is the correctness check of one job, run outside the timed
// section. The final error is re-measured by full simulation with a
// fresh comparator on the run's patterns and seed; it must equal the
// reported error and lie within the bound. A MaxED result must also
// re-prove its bound by SAT, with no conflict budget.
func gate(j job, orig *accals.Graph, o outcome, seed int64) error {
	if o.Failure != "" {
		return errors.New(o.Failure)
	}
	if o.State != "" && o.State != "done" {
		return fmt.Errorf("job ended %s", o.State)
	}
	if o.Final == nil {
		return errors.New("no final circuit")
	}
	if o.Final.NumPIs() != orig.NumPIs() || o.Final.NumPOs() != orig.NumPOs() {
		return fmt.Errorf("interface %d/%d, want %d/%d", o.Final.NumPIs(), o.Final.NumPOs(), orig.NumPIs(), orig.NumPOs())
	}
	e := accals.Error(orig, o.Final, j.metric(), j.Patterns, seed)
	if e != o.Error {
		return fmt.Errorf("re-measured error %v, reported %v", e, o.Error)
	}
	if !(e <= j.Bound) {
		return fmt.Errorf("error %v exceeds bound %v", e, j.Bound)
	}
	if j.metric() == accals.MaxED {
		cert, err := accals.CertifyMaxError(o.Final, orig, uint64(j.Bound), 0)
		if err != nil {
			return fmt.Errorf("certify: %w", err)
		}
		if !cert.Certified {
			return fmt.Errorf("max error bound %v not certified", j.Bound)
		}
	}
	return nil
}

// checker gates every outcome of a run: the first outcome of each task
// of the bank through the full gate, every repeat by its determinism
// record against the first.
type checker struct {
	w       workload
	origs   []*accals.Graph
	first   []*record // by task index in the bank
	failed  int
	checked int
	// errs lists every failure, one line each.
	errs []string
}

func newChecker(w workload, origs []*accals.Graph, sets int) *checker {
	return &checker{w: w, origs: origs, first: make([]*record, sets*len(w.Jobs))}
}

// check gates one pass's outcomes of the given tasks.
func (c *checker) check(ts []task, outs []outcome) {
	for k, o := range outs {
		c.checked++
		if err := c.checkOne(ts[k], o); err != nil {
			c.failed++
			c.errs = append(c.errs, fmt.Sprintf("set %d %s: %v", ts[k].Set, c.w.Jobs[ts[k].Job].name(), err))
		}
	}
}

func (c *checker) checkOne(t task, o outcome) error {
	j := c.w.Jobs[t.Job]
	idx := t.Set*len(c.w.Jobs) + t.Job
	first := c.first[idx]
	if first == nil || o.Failure != "" || o.Final == nil {
		if err := gate(j, c.origs[t.Job], o, t.Seed); err != nil {
			return err
		}
	}
	r, err := makeRecord(j, t, o)
	if err != nil {
		return err
	}
	if first == nil {
		c.first[idx] = &r
		return nil
	}
	if r != *first {
		return fmt.Errorf("repeat disagrees: %+v, first run %+v", r, *first)
	}
	return nil
}

// records returns the determinism records of the tasks that passed.
func (c *checker) records() []record {
	var rs []record
	for _, r := range c.first {
		if r != nil {
			rs = append(rs, *r)
		}
	}
	return rs
}
