// Package jsonl owns the repository's line-delimited JSON, writing and
// reading.
//
// Sink writes it: the decision flight recorder, the placement recorder and
// the span exporter each put their records into one, which keeps the most
// recent in a Ring for the /debug endpoints and writes every record as one
// JSON document per line.
//
// Decode reads it. Those files are routinely read while another process is
// still appending to them. A reader that races the writer sees a truncated
// final line (or several, if the writer buffers); treating that as fatal
// makes `collabvr-inspect spans live.jsonl` flaky for no good reason. At the
// same time, corruption in the interior of a file — a bad line followed by
// more good ones — is a real problem worth failing loudly on, not skipping.
// Decode implements exactly that policy: interior malformed lines are hard
// errors, a trailing run of malformed or partial lines is skipped and
// counted.
package jsonl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// maxLineBytes bounds a single JSONL line (4 MiB, matching the span
// reader's historical limit).
const maxLineBytes = 1 << 22

// Decode parses a JSONL stream of T. Blank lines are skipped. validate,
// when non-nil, runs on each decoded record; a validation failure is
// treated like a parse failure. The returned skipped count is the number of
// trailing lines dropped as a live writer's partial tail; any bad line with
// a good line after it is a hard error naming the bad line's number.
func Decode[T any](r io.Reader, validate func(*T) error) (records []T, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), maxLineBytes)
	line := 0
	badLine := 0 // first line of the current run of bad lines
	var badErr error
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec T
		lineErr := json.Unmarshal([]byte(text), &rec)
		if lineErr == nil && validate != nil {
			lineErr = validate(&rec)
		}
		if lineErr != nil {
			if badErr == nil {
				badLine, badErr = line, lineErr
			}
			skipped++
			continue
		}
		if badErr != nil {
			// A well-formed record after a bad line: the bad line was not a
			// partial tail but interior corruption.
			return nil, 0, fmt.Errorf("jsonl: line %d: %w", badLine, badErr)
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("jsonl: read: %w", err)
	}
	return records, skipped, nil
}
