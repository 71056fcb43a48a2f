package simlint

import "testing"

// --- guarded-by discipline ---

func TestSyncCheckTotalityOverMutexStructs(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

import "sync"

type Pool struct {
	mu sync.Mutex
	// synccheck:guardedby mu
	count int
	// synccheck:unguarded immutable after construction
	name string
	// sync fields synchronize themselves and need no marker.
	once sync.Once
	bare int
}

// Entry has no mutex, so totality does not apply.
type Entry struct {
	val int
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags,
		"field bare of mutex-bearing struct Pool needs a synccheck:guardedby")
}

func TestSyncCheckMarkerValidation(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

import "sync"

type P struct {
	mu sync.Mutex
	// synccheck:guardedby
	a int
	// synccheck:guardedby nosuch
	b int
	// synccheck:unguarded
	c int
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags,
		"missing its mutex field name",
		"synccheck:guardedby names nosuch, which is not a sync.Mutex/RWMutex field of P",
		"synccheck:unguarded marker on P.c is missing a reason")
}

func TestSyncCheckGuardedAccessNeedsLock(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

import "sync"

type P struct {
	mu sync.Mutex
	// synccheck:guardedby mu
	count int
}

func (p *P) Bad() int {
	return p.count
}

func (p *P) Good() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count++
	return p.count
}

func (p *P) BadWrite() {
	p.count = 1
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags,
		"read of count (guarded by mu) without holding p.mu",
		"write of count (guarded by mu) without holding p.mu")
}

func TestSyncCheckRWMutexWriteNeedsWriteLock(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

import "sync"

type P struct {
	mu sync.RWMutex
	// synccheck:guardedby mu
	count int
}

func (p *P) ReadOK() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.count
}

func (p *P) WriteUnderRLock() {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.count++
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags,
		"write of count (guarded by mu) under RLock")
}

func TestSyncCheckLockFlow(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

import "sync"

type P struct {
	mu sync.Mutex
	// synccheck:guardedby mu
	n int
}

func (p *P) Leak() {
	p.mu.Lock()
	p.n = 1
}

func (p *P) DoubleLock() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mu.Lock()
}

func (p *P) StrayUnlock() {
	p.mu.Unlock()
}

func (p *P) BranchRelease(b bool) {
	p.mu.Lock()
	if b {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags,
		"p.mu is still held here",
		"p.mu.Lock while p.mu is already held",
		"p.mu.Unlock without a matching lock")
}

func TestSyncCheckDroppedUnlockInLoop(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

import "sync"

type P struct {
	mu sync.Mutex
	// synccheck:guardedby mu
	n int
}

func (p *P) Sum(xs []int) {
	for _, x := range xs {
		p.mu.Lock()
		p.n += x
	}
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags,
		"locked in this loop body is still held at the end of the iteration")
}

func TestSyncCheckHoldsMarker(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

import "sync"

type P struct {
	mu sync.Mutex
	// synccheck:guardedby mu
	n int
}

// bump increments without re-locking.
//
// synccheck:holds p.mu
func (p *P) bump() {
	p.n++
}

func (p *P) OK() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bump()
}

func (p *P) Bad() {
	p.bump()
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags,
		"call to bump requires holding p.mu")
}

func TestSyncCheckPackageLevelGuard(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

import "sync"

var stateMu sync.Mutex

// synccheck:guardedby stateMu
var hits int

func Bad() int {
	return hits
}

func Good() int {
	stateMu.Lock()
	defer stateMu.Unlock()
	hits++
	return hits
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags,
		"read of hits (guarded by stateMu) without holding stateMu")
}

// --- goroutine capture ---

func TestSyncCheckGoroutineLockFreeAccess(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

import "sync"

type P struct {
	mu sync.Mutex
	// synccheck:guardedby mu
	n int
}

func (p *P) Spawn() {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		p.n++ // spawn site holds the lock; the goroutine does not
	}()
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags,
		"write of n (guarded by mu) without holding p.mu")
}

// --- lifecycle pairing ---

func TestSyncCheckWaitGroupPairing(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

import "sync"

func AddBeforeSpawn(f func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f()
	}()
	wg.Wait()
}

func AddInsideGoroutine(f func()) {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1)
		defer wg.Done()
		f()
	}()
	wg.Wait()
}

func DoneNotDeferred(f func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		f()
		wg.Done()
	}()
	wg.Wait()
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags,
		"wg.Add inside the goroutine it covers races Wait",
		"wg.Done in a goroutine should be deferred")
}

func TestSyncCheckChannelDiscipline(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

func DoubleClose() {
	ch := make(chan int)
	close(ch)
	close(ch)
}

func LocalSendOK() {
	ch := make(chan int, 1)
	ch <- 1
	close(ch)
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags,
		"channel ch is closed more than once")
}

// --- determinism bridge ---

func TestSyncCheckDeterminismBridge(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

import "time"

var total int

func helper() {
	total++
}

func Spawn(f func()) {
	go func() {
		_ = time.Now()
		helper()
		f()
	}()
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags,
		"goroutine-reachable code writes package-level var total",
		"goroutine-reachable code calls time.Now")
}

func TestSyncCheckNondetMarkerSuppressesBridge(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

import "time"

func Spawn(report func(time.Duration)) {
	go func() {
		start := time.Now() // synccheck:nondet progress timing only, never reaches results
		// synccheck:nondet progress timing only, never reaches results
		report(time.Since(start))
	}()
}

func Unreasoned(f func()) {
	go func() {
		// synccheck:nondet
		f()
	}()
}

// stamp is audited as a whole by its doc comment.
//
// synccheck:nondet progress timing only, never reaches results
func stamp() time.Time {
	return time.Now()
}

func unaudited() time.Time {
	return time.Now()
}

func SpawnHelpers(report func(time.Time)) {
	go func() {
		report(stamp())
		report(unaudited())
	}()
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags,
		"synccheck:nondet marker is missing a reason",
		"goroutine-reachable code calls time.Now")
}

// TestSyncCheckAcceptsLoaderShape pins the annotation shape the
// loader itself uses — a package-level mutex guarding package-level
// state, accessed only inside the critical section — so the self-lint
// of internal/simlint stays expressible.
func TestSyncCheckAcceptsLoaderShape(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": `package a

import "sync"

var loadMu sync.Mutex

// synccheck:guardedby loadMu
var shared map[string]int

func Load(key string) int {
	loadMu.Lock()
	defer loadMu.Unlock()
	if shared == nil {
		shared = map[string]int{}
	}
	shared[key]++
	return shared[key]
}
`,
	}, NewSyncCheck())
	expectDiags(t, diags)
}
