package kvio

// Raw-segment access for the pipelined shuffle. A shuffle copier stages
// the raw bytes of one partition segment (ReadSegment) on the reduce
// side's staging node long before the reduce attempt runs; the attempt
// later decodes the staged copy (NewSegmentStream) instead of re-reading
// the map output across the fabric. Both on-disk run formats decode from
// a plain byte stream, so a staged copy is indistinguishable from the
// original positioned read.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"mrtext/internal/serde"
	"mrtext/internal/vdisk"
)

// ReadSegment reads the raw on-disk bytes of partition part of the run
// described by idx. The returned bytes, decoded with NewSegmentStream
// (honoring idx.Compressed), yield exactly the records OpenRunPart would.
func ReadSegment(disk vdisk.Disk, idx RunIndex, part int) ([]byte, error) {
	if part < 0 || part >= len(idx.Segments) {
		return nil, fmt.Errorf("kvio: run %q has no partition %d", idx.Name, part)
	}
	seg := idx.Segments[part]
	rc, err := disk.OpenSection(idx.Name, seg.Off, seg.Len)
	if err != nil {
		return nil, fmt.Errorf("kvio: reading run %q part %d: %w", idx.Name, part, err)
	}
	buf := make([]byte, seg.Len)
	_, rerr := io.ReadFull(rc, buf)
	cerr := rc.Close()
	if rerr != nil {
		return nil, fmt.Errorf("kvio: reading run %q part %d: %w", idx.Name, part, rerr)
	}
	if cerr != nil {
		return nil, fmt.Errorf("kvio: reading run %q part %d: close: %w", idx.Name, part, cerr)
	}
	return buf, nil
}

// NewSegmentStream decodes one partition segment from rc in the given
// on-disk format (compressed selects the prefix-compressed framing).
// Closing the stream closes rc.
func NewSegmentStream(rc io.ReadCloser, compressed bool) Stream {
	if compressed {
		return &prefixRunReader{rc: rc, r: bufio.NewReaderSize(rc, 64<<10)}
	}
	return &runReader{rc: rc, r: serde.NewReader(bufio.NewReaderSize(rc, 64<<10))}
}

// NewBytesSegmentStream decodes an in-memory segment previously read with
// ReadSegment (or any byte-identical copy of one).
func NewBytesSegmentStream(data []byte, compressed bool) Stream {
	return NewSegmentStream(io.NopCloser(bytes.NewReader(data)), compressed)
}
