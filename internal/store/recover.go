package store

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Crash recovery. A store writer killed mid-run leaves three kinds of
// debris behind: segment files finalized after the last manifest write
// (valid footer, just unlisted), the torn segment that was open when the
// process died (no footer, possibly a truncated gzip stream), and stray
// .tmp files from interrupted atomic replaces. Open adopts the first kind
// and repairs the second in place; Resume — the campaign -resume path —
// instead discards everything not covered by the manifest, because the
// resumed campaign will regenerate those records byte-identically.

// parseShardName inverts shardName, accepting only canonical names.
func parseShardName(name string) (day, pairShard, seq int, ok bool) {
	var d, p, s int
	if n, err := fmt.Sscanf(name, "d%d-p%d-s%d.shard", &d, &p, &s); err != nil || n != 3 {
		return 0, 0, 0, false
	}
	if shardName(d, p, s) != name {
		return 0, 0, 0, false
	}
	return d, p, s, true
}

// shardFiles lists the .shard files in dir with their parsed coordinates.
type shardFile struct {
	name         string
	day, ps, seq int
}

func listShardFiles(dir string) ([]shardFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []shardFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		day, ps, seq, ok := parseShardName(e.Name())
		if !ok {
			continue
		}
		out = append(out, shardFile{name: e.Name(), day: day, ps: ps, seq: seq})
	}
	return out, nil
}

// adoptOrphans finds segment files not listed in the manifest, repairs
// torn ones in place, and returns shard entries (with decoded footers)
// for everything recovered. Files that cannot be recovered are left on
// disk and skipped; Verify reports them.
func adoptOrphans(dir string, man *Manifest) ([]shardInfo, error) {
	files, err := listShardFiles(dir)
	if err != nil {
		return nil, err
	}
	listed := make(map[string]bool, len(man.Shards))
	for _, e := range man.Shards {
		listed[e.File] = true
	}
	var adopted []shardInfo
	for _, f := range files {
		if listed[f.name] {
			continue
		}
		path := filepath.Join(dir, f.name)
		ix, err := readFooter(path)
		if err != nil {
			// No valid footer: the segment was open when the writer died.
			// Truncate the torn tail and rebuild the footer from the
			// decodable prefix.
			if ix, err = repairShard(path); err != nil {
				continue
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		adopted = append(adopted, shardInfo{
			ShardEntry: ShardEntry{
				File:      f.name,
				Day:       f.day,
				PairShard: f.ps,
				Seq:       f.seq,
				Records:   ix.Records,
				MinAtNS:   int64(ix.MinAt),
				MaxAtNS:   int64(ix.MaxAt),
				Bytes:     fi.Size(),
			},
			ix: ix,
		})
	}
	return adopted, nil
}

// repairShard recovers the decodable prefix of a footer-less segment: the
// payload is decompressed best-effort, frames are walked and decoded until
// the torn tail, and the file is atomically rewritten as a well-formed
// shard holding that prefix verbatim, with a rebuilt footer and frame
// directory. Returns the new footer, or an error if nothing was
// recoverable.
func repairShard(path string) (*shardIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < headerLen || string(data[:len(shardMagic)]) != shardMagic {
		return nil, fmt.Errorf("store: %s: not a shard file", filepath.Base(path))
	}
	flags := data[len(shardMagic)]
	raw := data[headerLen:]
	if flags&flagGzip != 0 {
		gr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
		}
		// A torn gzip stream errors at the tail; keep what decompressed.
		raw, _ = io.ReadAll(gr)
	}
	// Walk frames off the prefix until the torn tail.
	b := newShardBuilder()
	end := 0
	for end < len(raw) {
		h, err := trace.ParseFrameHeader(raw[end:])
		if err != nil {
			break
		}
		if _, _, err := trace.DecodeFrame(raw[end : end+h.Len]); err != nil {
			break
		}
		b.add(h)
		end += h.Len
	}
	if end == 0 {
		return nil, fmt.Errorf("store: %s: no recoverable records", filepath.Base(path))
	}
	// Rewrite the file as a well-formed shard.
	tmpPath := path + ".tmp"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmpPath)
	if _, err := tmp.Write(append([]byte(shardMagic), flags)); err != nil {
		tmp.Close()
		return nil, err
	}
	disk := &countWriter{w: tmp}
	if flags&flagGzip != 0 {
		gz := gzip.NewWriter(disk)
		if _, err = gz.Write(raw[:end]); err == nil {
			err = gz.Close()
		}
	} else {
		_, err = disk.Write(raw[:end])
	}
	if err != nil {
		tmp.Close()
		return nil, err
	}
	ix, dir := b.finish(disk.n)
	if _, err := writeTail(tmp, ix, dir); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		return nil, err
	}
	ix.gzip = flags&flagGzip != 0
	return ix, nil
}

// Resume reopens a store for continued writing from its last durable
// state (the manifest a Checkpoint or Close wrote). Segment files not
// listed in the manifest — debris from after the last checkpoint — are
// deleted, as are stray .tmp files: a resumed campaign regenerates those
// records deterministically, and keeping them would duplicate records.
func Resume(dir string) (*Writer, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	files, err := listShardFiles(dir)
	if err != nil {
		return nil, err
	}
	listed := make(map[string]bool, len(man.Shards))
	for _, e := range man.Shards {
		listed[e.File] = true
	}
	for _, f := range files {
		if !listed[f.name] {
			if err := os.Remove(filepath.Join(dir, f.name)); err != nil {
				return nil, err
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	opts, err := (&Options{
		DayLength:   man.DayLength(),
		PairShards:  man.PairShards,
		Compression: man.Compression,
		Tool:        man.Tool,
		Seed:        man.Seed,
		TopoDigest:  man.TopoDigest,
	}).withDefaults()
	if err != nil {
		return nil, err
	}
	w := &Writer{
		dir:         dir,
		opts:        opts,
		open:        make(map[cellID]*shardWriter),
		seqs:        make(map[cellID]int),
		done:        append([]ShardEntry(nil), man.Shards...),
		records:     man.Records,
		traceroutes: man.Traceroutes,
		pings:       man.Pings,
	}
	for _, e := range man.Shards {
		cell := cellID{day: e.Day, ps: e.PairShard}
		if e.Seq+1 > w.seqs[cell] {
			w.seqs[cell] = e.Seq + 1
		}
	}
	return w, nil
}

// VerifyReport is the result of a store fsck.
type VerifyReport struct {
	// Shards is the number of manifest-listed shards checked; Records is
	// the record count recovered by decoding every payload.
	Shards  int
	Records int64
	// Orphans counts segment files on disk that the manifest does not
	// list; Torn counts the subset without a valid footer.
	Orphans int
	Torn    int
	// Problems lists integrity violations (empty for a healthy store).
	Problems []string
}

// OK reports whether the store passed verification. Orphans are not
// failures — Open can adopt them — but problems are.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

// String summarizes the report.
func (r *VerifyReport) String() string {
	s := fmt.Sprintf("%d shards, %d records, %d orphans (%d torn), %d problems",
		r.Shards, r.Records, r.Orphans, r.Torn, len(r.Problems))
	for _, p := range r.Problems {
		s += "\n  " + p
	}
	return s
}

// Verify fscks a store: every manifest-listed shard is opened, its
// payload walked frame by frame, its counts cross-checked against the
// footer, the manifest entry, and the manifest totals, and its frame
// directory checked against the walk frame for frame. Unlisted segment
// files are counted as orphans (torn when they lack a valid footer) but do
// not fail verification. Verify never modifies the store.
func Verify(dir string) (*VerifyReport, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{}
	listed := make(map[string]bool, len(man.Shards))
	var total, trs, pgs int64
	for _, e := range man.Shards {
		listed[e.File] = true
		rep.Shards++
		path := filepath.Join(dir, e.File)
		ix, err := readFooter(path)
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("shard %s: %v", e.File, err))
			continue
		}
		if ix.Records != e.Records {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("shard %s: footer holds %d records, manifest says %d", e.File, ix.Records, e.Records))
		}
		_, raw, err := readShardBytes(path, ix)
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("shard %s: %v", e.File, err))
			continue
		}
		b := newShardBuilder()
		bad := false
		for off := 0; off < len(raw); {
			h, err := trace.ParseFrameHeader(raw[off:])
			if err != nil {
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("shard %s: frame at %d: %v", e.File, off, err))
				bad = true
				break
			}
			b.add(h)
			off += h.Len
		}
		if bad {
			continue
		}
		n, tn, pn := b.ix.Records, b.ix.Traceroutes, b.ix.Pings
		if n != ix.Records || tn != ix.Traceroutes || pn != ix.Pings {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("shard %s: payload holds %d records (%d tr, %d pg), footer says %d (%d, %d)",
					e.File, n, tn, pn, ix.Records, ix.Traceroutes, ix.Pings))
			continue
		}
		if err := checkDir(path, ix, b.entries()); err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("shard %s: %v", e.File, err))
			continue
		}
		rep.Records += n
		total += n
		trs += tn
		pgs += pn
	}
	if total != man.Records || trs != man.Traceroutes || pgs != man.Pings {
		rep.Problems = append(rep.Problems,
			fmt.Sprintf("manifest totals %d/%d/%d disagree with shard contents %d/%d/%d",
				man.Records, man.Traceroutes, man.Pings, total, trs, pgs))
	}
	files, err := listShardFiles(dir)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if listed[f.name] {
			continue
		}
		rep.Orphans++
		if _, err := readFooter(filepath.Join(dir, f.name)); err != nil {
			rep.Torn++
		}
	}
	sort.Strings(rep.Problems)
	return rep, nil
}

// checkDir reads a shard's frame directory and compares it, frame for
// frame, with the directory rebuilt from a walk of its payload.
func checkDir(path string, ix *shardIndex, walked []dirEntry) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	data := make([]byte, ix.DirBytes)
	if _, err := f.ReadAt(data, ix.DirOffset); err != nil {
		return fmt.Errorf("directory: %w", err)
	}
	ents, err := decodeDir(data, ix, nil)
	if err != nil {
		return err
	}
	for i, w := range walked {
		if i >= len(ents) || ents[i].Key != w.Key || !reflect.DeepEqual(ents[i].Frames, w.Frames) {
			return fmt.Errorf("directory disagrees with the frame walk at key %v", w.Key)
		}
	}
	if len(ents) != len(walked) {
		return fmt.Errorf("directory lists %d keys, frame walk finds %d", len(ents), len(walked))
	}
	return nil
}
