package persist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// Save writes the maintained spanner's full exported state to path as a
// snapshot at op sequence 0, with mode 0644. The snapshot streams from
// the exported state into the file (see writeAtomic), so the write never
// holds the encoded file in memory. Its pending batch is flushed first.
func Save(inc *core.IncrementalSpanner, path string) error {
	st, err := inc.ExportState()
	if err != nil {
		return err
	}
	enc := newSnapEncoder(st, 0)
	return writeAtomic(path, 0o644, false, enc.size, enc.writeTo, nil)
}

// writeAtomic replaces path with the size bytes that write produces, so
// that a crash at any point leaves either the old file or the complete
// new one. The bytes go through a 64 KB buffer into a temporary file in
// the same directory, which is flushed, fsynced and closed (their errors
// checked in that order), renamed over path, and the directory entry is
// fsynced too — without the final directory sync, ext4-style filesystems
// may journal the rename after a crash away again, losing a file the
// caller was told is durable. It is the one atomic write behind Save and
// every snapshot and WAL header a Durable writes.
//
// perm, when nonzero, is the file's mode; zero keeps CreateTemp's 0600.
// nosync skips both fsyncs (Options.NoSync). crash, when not nil, is
// consulted at the four windows of the replace, in order: temp-write (a
// torn temp file holding the first half of the stream), temp-sync (the
// whole stream written but not synced, worst case an empty file),
// rename-lost (the rename journaled away, so path never appears) and
// rename-kept (the committed outcome). A simulated crash leaves its temp
// file behind, as a real one would; Open removes that debris.
func writeAtomic(path string, perm os.FileMode, nosync bool, size int64, write func(io.Writer) error, crash func(window string, wreck func()) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-")
	if err != nil {
		return err
	}
	crashed := false
	defer func() {
		if !crashed {
			os.Remove(tmp.Name()) // no-op once the rename succeeded
		}
	}()
	at := func(window string, wreck func()) error {
		if crash == nil {
			return nil
		}
		err := crash(window, wreck)
		crashed = err != nil
		return err
	}
	if perm != 0 {
		if err := tmp.Chmod(perm); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := at("temp-write", func() {
		write(&prefixWriter{w: tmp, n: size / 2})
		tmp.Sync()
		tmp.Close()
	}); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(tmp, int(min(size, 64<<10)))
	if err := write(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := at("temp-sync", func() {
		tmp.Truncate(0)
		tmp.Close()
	}); err != nil {
		return err
	}
	if !nosync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := at("rename-lost", nil); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if !nosync {
		if err := syncDir(dir); err != nil {
			return err
		}
	}
	return at("rename-kept", nil)
}

// prefixWriter passes on the first n bytes written to it and drops the
// rest: what a write torn at byte n leaves on disk.
type prefixWriter struct {
	w io.Writer
	n int64
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	if k := min(int64(len(b)), p.n); k > 0 {
		if _, err := p.w.Write(b[:k]); err != nil {
			return 0, err
		}
		p.n -= k
	}
	return len(b), nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: sync dir %s: %w", dir, err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("persist: sync dir %s: %w", dir, serr)
	}
	return cerr
}
