// Package baseline implements the alternative architectures the paper
// argues against, so the experiments can compare like with like:
//
//   - the store-first-query-later pipeline is the engine itself used in
//     batch mode (bulk load, then snapshot queries) — no extra code needed;
//   - PeriodicMV is a periodically refreshed materialized view (§5);
//   - MapReduce is an in-process map/shuffle/reduce job runner over
//     serialized event files, reproducing the batch-paradigm cost
//     structure of Hadoop-style processing (§1.3, §5): every job rescans
//     its full input from disk and materializes intermediate results.
package baseline

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"streamrel/internal/types"
)

// MapFunc emits zero or more (key, value) pairs for an input row.
type MapFunc func(row types.Row, emit func(key string, value types.Row))

// ReduceFunc folds all values for one key into output rows.
type ReduceFunc func(key string, values []types.Row, emit func(row types.Row))

// MapReduce runs jobs over row files in a working directory.
type MapReduce struct {
	Dir        string
	Partitions int // shuffle partitions (default 4)
}

// WriteInput serializes rows as the named input file (the "HDFS" of this
// simulation).
func (mr *MapReduce) WriteInput(name string, rows []types.Row) error {
	return writeRowFile(filepath.Join(mr.Dir, name), rows)
}

// AppendInput appends rows to the named input file.
func (mr *MapReduce) AppendInput(name string, rows []types.Row) error {
	f, err := os.OpenFile(filepath.Join(mr.Dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, r := range rows {
		if err := writeRow(w, r); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Run executes one full batch job: scan the input file, map, shuffle into
// partition files on disk, then reduce each partition. The disk round-trip
// between phases is the point: it models the inherent materialization cost
// of the batch paradigm.
func (mr *MapReduce) Run(input string, m MapFunc, r ReduceFunc) ([]types.Row, error) {
	parts := mr.Partitions
	if parts <= 0 {
		parts = 4
	}
	// Map phase: stream the input, spill (key, value) pairs per partition.
	partFiles := make([]*os.File, parts)
	partWriters := make([]*bufio.Writer, parts)
	for i := range partFiles {
		f, err := os.CreateTemp(mr.Dir, "shuffle-*.part")
		if err != nil {
			return nil, err
		}
		defer os.Remove(f.Name())
		defer f.Close()
		partFiles[i] = f
		partWriters[i] = bufio.NewWriter(f)
	}
	var mapErr error
	emit := func(key string, value types.Row) {
		p := int(hashString(key) % uint64(parts))
		if err := writeKV(partWriters[p], key, value); err != nil && mapErr == nil {
			mapErr = err
		}
	}
	err := scanRowFile(filepath.Join(mr.Dir, input), func(row types.Row) error {
		m(row, emit)
		return mapErr
	})
	if err != nil {
		return nil, err
	}
	for _, w := range partWriters {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}

	// Reduce phase: read each partition back, group by key, reduce.
	var out []types.Row
	var strs types.RowStrings
	for _, f := range partFiles {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		groups := make(map[string][]types.Row)
		rd := bufio.NewReader(f)
		for {
			key, value, err := readKV(rd, &strs)
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			groups[key] = append(groups[key], value)
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			r(k, groups[k], func(row types.Row) { out = append(out, row) })
		}
	}
	return out, nil
}

// InputSize returns the input file's size in bytes.
func (mr *MapReduce) InputSize(name string) int64 {
	info, err := os.Stat(filepath.Join(mr.Dir, name))
	if err != nil {
		return 0
	}
	return info.Size()
}

// ------------------------------------------------------------ row files

func writeRowFile(path string, rows []types.Row) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, r := range rows {
		if err := writeRow(w, r); err != nil {
			return err
		}
	}
	return w.Flush()
}

func writeRow(w *bufio.Writer, r types.Row) error {
	buf := types.EncodeRow(nil, r)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(buf)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(buf)
	return err
}

func scanRowFile(path string, fn func(types.Row) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd := bufio.NewReader(f)
	var hdr [4]byte
	var strs types.RowStrings
	for {
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		buf := make([]byte, n)
		if _, err := io.ReadFull(rd, buf); err != nil {
			return fmt.Errorf("baseline: truncated row file %s: %w", path, err)
		}
		row, _, err := types.DecodeRow(buf, &strs)
		if err != nil {
			return err
		}
		if err := fn(row); err != nil {
			return err
		}
	}
}

func writeKV(w *bufio.Writer, key string, value types.Row) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(key)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.WriteString(key); err != nil {
		return err
	}
	return writeRow(w, value)
}

func readKV(rd *bufio.Reader, strs *types.RowStrings) (string, types.Row, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return "", nil, err
	}
	key := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(rd, key); err != nil {
		return "", nil, err
	}
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return "", nil, err
	}
	buf := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(rd, buf); err != nil {
		return "", nil, err
	}
	row, _, err := types.DecodeRow(buf, strs)
	return string(key), row, err
}

func hashString(s string) uint64 {
	// FNV-1a.
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
