package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// expected holds the verdict digests the benchmark checks its outputs
// against: per input set for lot and scale, per job spec for serve. The
// digests were recorded from the program with -record; a speed-up that
// changes any verdict bit changes the digest and fails the run.
type expected struct {
	mu    sync.Mutex
	Lot   map[string]string `json:"lot"`
	Scale map[string]string `json:"scale"`
	Serve map[string]string `json:"serve"`
}

func newExpected() *expected {
	return &expected{Lot: map[string]string{}, Scale: map[string]string{}, Serve: map[string]string{}}
}

// loadExpected reads the digest file; a missing file is an empty table.
func loadExpected(path string) (*expected, error) {
	e := newExpected()
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return e, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// save writes the digest file with sorted keys.
func (e *expected) save(path string) error {
	e.mu.Lock()
	b, err := json.MarshalIndent(e, "", " ")
	e.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (e *expected) table(workload string) map[string]string {
	switch workload {
	case "lot":
		return e.Lot
	case "scale":
		return e.Scale
	default:
		return e.Serve
	}
}

// check reports whether got is the expected digest for key. A key with
// no recorded digest cannot be verified and fails.
func (e *expected) check(workload, key, got string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	want, ok := e.table(workload)[key]
	return ok && want == got
}

// set stores a digest (record mode and tests).
func (e *expected) set(workload, key, dig string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.table(workload)[key] = dig
}

// digestJSON hashes the JSON encoding of the values, in order. Reports
// encode NaN-safely (core's wire types), and Go's shortest round-trip
// float formatting makes equal bits encode equally.
func digestJSON(vs ...any) (string, error) {
	h := sha256.New()
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func setKey(set uint64) string { return strconv.FormatUint(set, 10) }

// recordDigests computes and stores the digests of every input set of
// one workload.
func recordDigests(workload string, rec func(set uint64, exp *expected) error, exp *expected, path string, log io.Writer) error {
	for set := uint64(0); set < inputSets; set++ {
		if err := rec(set, exp); err != nil {
			return fmt.Errorf("record %s set %d: %w", workload, set, err)
		}
		fmt.Fprintf(log, "perfbench: recorded %s input set %d\n", workload, set)
	}
	return exp.save(path)
}
