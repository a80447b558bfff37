package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lexequal/internal/core"
	"lexequal/internal/db"
	"lexequal/internal/server"
	"lexequal/internal/store"
)

// rig is one loaded database served by an in-process lexequald.
type rig struct {
	dir  string
	d    *db.DB
	srv  *server.Server
	addr string
	fs   *countFS

	loadS, setupS float64
}

// autoCheckpointBytes is the WAL growth at which a checkpointer poll
// checkpoints: 2 MiB instead of the engine's 4 MiB, polled every 250 ms
// instead of lexequald's 30 s. At about 15 KiB of WAL per commit the
// mixed writer then sees a checkpoint (about 130 ms with its version
// GC) every 130 commits or so, three to four per 18-s run. Under the
// defaults a run would see none; with many more, checkpoints would
// cover about a tenth of a run and read_p90_ms would flip between
// reads that overlap one and reads that do not.
const autoCheckpointBytes = 2 << 20

// serverConfig mirrors cmd/lexequald's flag defaults apart from the
// checkpointer's poll interval (see autoCheckpointBytes).
func serverConfig(logf func(string, ...any)) server.Config {
	return server.Config{
		Addr:               "127.0.0.1:0",
		MaxConns:           64,
		QueryTimeout:       30 * time.Second,
		SlowQuery:          time.Second,
		CheckpointInterval: 250 * time.Millisecond,
		Logf:               logf,
	}
}

// setUp loads texts the way cmd/mkdataset does (BuildAtomic +
// CreateNameTable with the aux table and indexes), opens the result
// with the WAL on and starts a server on a loopback port. The timed
// part is load + open + start.
func setUp(dir string, texts []core.Text) (*rig, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	r := &rig{dir: dir, fs: &countFS{}}
	start := time.Now()
	// A fresh operator per load, as a fresh mkdataset process has: its
	// transform cache starts empty.
	op, err := core.New(core.Options{})
	if err != nil {
		return nil, err
	}
	err = db.BuildAtomic(dir, db.Options{}, func(d *db.DB) error {
		_, err := db.CreateNameTable(d, "names", op, texts, db.NameTableSpec{WithAux: true, WithIndexes: true})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	r.loadS = time.Since(start).Seconds()
	r.d, err = db.OpenOpts(dir, db.Options{FS: r.fs, AutoCheckpointBytes: autoCheckpointBytes})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	logger := log.New(os.Stderr, "", log.Ltime)
	r.srv, err = server.New(r.d, nil, serverConfig(logger.Printf))
	if err != nil {
		r.d.Close()
		return nil, err
	}
	if err := r.srv.Start(); err != nil {
		r.d.Close()
		return nil, err
	}
	r.setupS = time.Since(start).Seconds()
	r.addr = r.srv.Addr().String()
	return r, nil
}

// stop drains the server, which also closes the database.
func (r *rig) stop() error { return r.srv.Shutdown() }

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// ioCounts is a snapshot of countFS.
type ioCounts struct {
	dataReadBytes             int64
	dataWriteBytes, dataSyncs int64
	walWriteBytes, walSyncs   int64
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{
		a.dataReadBytes - b.dataReadBytes,
		a.dataWriteBytes - b.dataWriteBytes, a.dataSyncs - b.dataSyncs,
		a.walWriteBytes - b.walWriteBytes, a.walSyncs - b.walSyncs,
	}
}

// countFS is a store.VFS over the real filesystem that counts the bytes
// the engine reads and writes and the syncs it issues, with WAL
// segments counted apart from data files.
type countFS struct {
	store.OSFS
	dataReadBytes             atomic.Int64
	dataWriteBytes, dataSyncs atomic.Int64
	walWriteBytes, walSyncs   atomic.Int64
}

func (c *countFS) snapshot() ioCounts {
	return ioCounts{
		c.dataReadBytes.Load(),
		c.dataWriteBytes.Load(), c.dataSyncs.Load(),
		c.walWriteBytes.Load(), c.walSyncs.Load(),
	}
}

// OpenFile implements store.VFS.
func (c *countFS) OpenFile(path string, flag int, perm os.FileMode) (store.File, error) {
	f, err := c.OSFS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	wal := filepath.Base(filepath.Dir(path)) == "wal"
	return &countFile{File: f, fs: c, wal: wal}, nil
}

type countFile struct {
	store.File
	fs  *countFS
	wal bool
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if !f.wal {
		f.fs.dataReadBytes.Add(int64(n))
	}
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	if f.wal {
		f.fs.walWriteBytes.Add(int64(n))
	} else {
		f.fs.dataWriteBytes.Add(int64(n))
	}
	return n, err
}

func (f *countFile) Sync() error {
	if f.wal {
		f.fs.walSyncs.Add(1)
	} else {
		f.fs.dataSyncs.Add(1)
	}
	return f.File.Sync()
}
