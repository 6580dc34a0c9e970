package policystore

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

// maxPolicyBytes bounds a fetched policy document. The paper's largest
// evaluated policy (1,050 rules, §VI-B1) is ~40 KB; 16 MB leaves three
// orders of magnitude of headroom while keeping a misconfigured endpoint
// (or a hostile one, for the HTTP backend) from ballooning gateway memory.
const maxPolicyBytes = 16 << 20

// StaticSource wraps an inline policy document: the facade's historical
// Config.Policy string expressed as a Source. It never changes after
// construction.
type StaticSource struct {
	doc     string
	version string
}

// NewStaticSource builds a Source over an inline document.
func NewStaticSource(doc string) *StaticSource {
	return &StaticSource{doc: doc, version: contentVersion([]byte(doc))}
}

// Fetch returns the inline document once; every later cycle is unchanged.
func (s *StaticSource) Fetch(prev string) (Candidate, bool, error) {
	if prev == s.version {
		return Candidate{}, true, nil
	}
	return Candidate{Doc: s.doc, Version: s.version}, false, nil
}

// String describes the backend.
func (s *StaticSource) String() string { return "static" }

// FileSource hot-loads a policy file: an mtime+size stat memo skips the
// read entirely while the file is untouched, and a content hash suppresses
// no-op applies when the file is rewritten with identical bytes (editors
// and config-management agents both do this).
//
// Update the file atomically (write a temp file, then rename over the
// target — what most editors and config agents do anyway): a poll landing
// inside a non-atomic truncate-then-write can observe the intermediate
// state, and a valid intermediate (e.g. an empty file) would be applied.
type FileSource struct {
	path string
	// lastMod and lastSize memoize the stat observed at the last read, so
	// an untouched file costs one Stat per poll — no read, no hash.
	lastMod  time.Time
	lastSize int64
	// lastRead is when that read happened. The memo is only trusted for
	// files that were already comfortably older than the coarsest common
	// mtime granularity at read time ("racily clean", as git calls it):
	// a same-size edit landing in the same timestamp tick as the read
	// would otherwise stat identical forever and never be picked up.
	lastRead time.Time
}

// mtimeGranularity is the coarsest mtime resolution the stat memo defends
// against (FAT-style 2 s; ext4/APFS/NTFS are much finer). Files modified
// within this window of the last read are re-hashed instead of trusted.
const mtimeGranularity = 2 * time.Second

// NewFileSource builds a Source over a policy file path.
func NewFileSource(path string) *FileSource { return &FileSource{path: path} }

// Fetch stats the file, and reads+hashes it only when the stat moved (or
// the memo cannot be trusted yet).
func (s *FileSource) Fetch(prev string) (Candidate, bool, error) {
	info, err := os.Stat(s.path)
	if err != nil {
		return Candidate{}, false, err
	}
	if prev != "" && info.ModTime().Equal(s.lastMod) && info.Size() == s.lastSize &&
		s.lastRead.Sub(s.lastMod) > mtimeGranularity {
		return Candidate{}, true, nil
	}
	if info.Size() > maxPolicyBytes {
		return Candidate{}, false, fmt.Errorf("%s: document exceeds %d bytes", s.path, maxPolicyBytes)
	}
	data, err := os.ReadFile(s.path)
	if err != nil {
		return Candidate{}, false, err
	}
	if len(data) > maxPolicyBytes {
		// The file grew between Stat and ReadFile.
		return Candidate{}, false, fmt.Errorf("%s: document exceeds %d bytes", s.path, maxPolicyBytes)
	}
	s.lastMod, s.lastSize, s.lastRead = info.ModTime(), info.Size(), time.Now()
	v := contentVersion(data)
	if v == prev {
		return Candidate{}, true, nil
	}
	return Candidate{Doc: string(data), Version: v}, false, nil
}

// String describes the backend.
func (s *FileSource) String() string { return "file:" + s.path }

// HTTPSource polls a policy document from an HTTP(S) endpoint with
// ETag/If-None-Match conditional GETs: a fleet controller serves the
// policy once and every unchanged poll costs a 304 with no body. Transport
// errors and non-200/304 statuses are reported to the Store, which keeps
// the last-good rules and backs off.
type HTTPSource struct {
	url string
	// etag is the validator from the last 200 response, replayed as
	// If-None-Match on later polls. Like FileSource's stat memo, it also
	// covers a candidate the Store rejected: a broken push is fetched and
	// counted as a failure once, then polled cheaply (304) rather than
	// re-downloaded and re-counted every cycle, until the endpoint serves
	// a new revision.
	etag string
}

// httpClient bounds every policy fetch, so a hung endpoint costs the
// reload loop one failed round rather than wedging it.
var httpClient = &http.Client{Timeout: 10 * time.Second}

// NewHTTPSource builds a Source over an URL.
func NewHTTPSource(url string) *HTTPSource { return &HTTPSource{url: url} }

// Fetch issues a conditional GET.
func (s *HTTPSource) Fetch(prev string) (Candidate, bool, error) {
	req, err := http.NewRequest(http.MethodGet, s.url, nil)
	if err != nil {
		return Candidate{}, false, err
	}
	if s.etag != "" && prev != "" {
		req.Header.Set("If-None-Match", s.etag)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return Candidate{}, false, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return Candidate{}, true, nil
	case http.StatusOK:
	default:
		return Candidate{}, false, fmt.Errorf("fetch %s: unexpected status %s", s.url, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPolicyBytes+1))
	if err != nil {
		return Candidate{}, false, fmt.Errorf("fetch %s: %w", s.url, err)
	}
	if len(data) > maxPolicyBytes {
		return Candidate{}, false, fmt.Errorf("%s: document exceeds %d bytes", s.url, maxPolicyBytes)
	}
	s.etag = resp.Header.Get("ETag")
	v := "etag:" + s.etag
	if s.etag == "" {
		v = contentVersion(data)
	}
	if v == prev {
		return Candidate{}, true, nil
	}
	return Candidate{Doc: string(data), Version: v}, false, nil
}

// String describes the backend.
func (s *HTTPSource) String() string { return s.url }
