package main

import (
	"io"
	"sync/atomic"
	"time"

	"mrtext/internal/vdisk"
)

// timedDisk decorates a node disk from outside the runtime: it adds up
// the wall time spent inside every call and the bytes that pass through
// its readers and writers. It is installed only around the traced job.
type timedDisk struct {
	inner vdisk.Disk
	ns    atomic.Int64
	read  atomic.Int64
	wrote atomic.Int64
}

func (d *timedDisk) since(start time.Time) { d.ns.Add(int64(time.Since(start))) }

// Create implements vdisk.Disk.
func (d *timedDisk) Create(name string) (io.WriteCloser, error) {
	defer d.since(time.Now())
	w, err := d.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedWriter{d: d, w: w}, nil
}

// Open implements vdisk.Disk.
func (d *timedDisk) Open(name string) (io.ReadCloser, error) {
	defer d.since(time.Now())
	r, err := d.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &timedReader{d: d, r: r}, nil
}

// OpenSection implements vdisk.Disk.
func (d *timedDisk) OpenSection(name string, off, length int64) (io.ReadCloser, error) {
	defer d.since(time.Now())
	r, err := d.inner.OpenSection(name, off, length)
	if err != nil {
		return nil, err
	}
	return &timedReader{d: d, r: r}, nil
}

// Size implements vdisk.Disk.
func (d *timedDisk) Size(name string) (int64, error) {
	defer d.since(time.Now())
	return d.inner.Size(name)
}

// Remove implements vdisk.Disk.
func (d *timedDisk) Remove(name string) error {
	defer d.since(time.Now())
	return d.inner.Remove(name)
}

// Rename implements vdisk.Disk.
func (d *timedDisk) Rename(oldName, newName string) error {
	defer d.since(time.Now())
	return d.inner.Rename(oldName, newName)
}

// Stats implements vdisk.Disk.
func (d *timedDisk) Stats() vdisk.Stats { return d.inner.Stats() }

type timedWriter struct {
	d *timedDisk
	w io.WriteCloser
}

func (t *timedWriter) Write(p []byte) (int, error) {
	defer t.d.since(time.Now())
	n, err := t.w.Write(p)
	t.d.wrote.Add(int64(n))
	return n, err
}

func (t *timedWriter) Close() error {
	defer t.d.since(time.Now())
	return t.w.Close()
}

type timedReader struct {
	d *timedDisk
	r io.ReadCloser
}

func (t *timedReader) Read(p []byte) (int, error) {
	defer t.d.since(time.Now())
	n, err := t.r.Read(p)
	t.d.read.Add(int64(n))
	return n, err
}

func (t *timedReader) Close() error {
	defer t.d.since(time.Now())
	return t.r.Close()
}
