package htmlparse

import "sync"

// Parser owns the scratch state of one tokenizer + tree builder pair so a
// long-running workload (the crawler's page loop, the conformance runner)
// can parse documents back to back without re-allocating its buffers.
//
// Only scratch is recycled between parses: the token queue, text and
// attribute accumulators, open-element stack, active-formatting list and
// error slices. Everything that escapes into a Result — the preprocessed
// input buffer, the node arena slabs, the events slice — is
// abandoned to the previous document on reset, so Results stay valid after
// the parser moves on (there is no aliasing between two parses' outputs).
type Parser struct {
	z  Tokenizer
	tb treeBuilder

	// fresh distinguishes a pool miss (New just ran) from a reuse at Get
	// time, feeding the htmlparse_pool_* metrics.
	fresh bool
}

var parserPool = sync.Pool{New: func() any { return &Parser{fresh: true} }}

func getParser() *Parser {
	p := parserPool.Get().(*Parser)
	if m := metrics.Load(); m != nil {
		if p.fresh {
			m.poolMisses.Inc()
		} else {
			m.poolHits.Inc()
		}
	}
	p.fresh = false
	return p
}

// reset re-arms the parser over a freshly preprocessed input buffer,
// reusing scratch capacity and dropping per-document state (arena,
// events) on the floor for the previous Result to keep.
func (p *Parser) reset(input []byte, opts Options) {
	z := &p.z
	*z = Tokenizer{
		input:     input,
		line:      1,
		col:       1,
		state:     stateData,
		queue:     z.queue[:0],
		textBuf:   z.textBuf[:0],
		attrName:  z.attrName[:0],
		attrValue: z.attrValue[:0],
		attrRaw:   z.attrRaw[:0],
		tmpBuf:    z.tmpBuf[:0],
		errors:    z.errors[:0],
	}
	tb := &p.tb
	*tb = treeBuilder{
		z:                z,
		mode:             modeInitial,
		framesetOK:       true,
		scriptingEnabled: true,
		onTag:            opts.OnTag,
		maxDepth:         opts.MaxTreeDepth,
		arena:            nodeArena{next: firstSlab(len(input))},
		stack:            tb.stack[:0],
		afe:              tb.afe[:0],
		pendingTableText: tb.pendingTableText[:0],
		errors:           tb.errors[:0],
	}
	tb.doc = tb.newNode()
	tb.doc.Type = DocumentNode
	z.AllowCDATA = func() bool {
		n := tb.currentNode()
		return n != nil && n.Namespace != NamespaceHTML
	}
}

// parse runs one preprocessed document through p — as a fragment when
// opts.Context is set — and assembles its Result. cancel, when non-nil,
// is polled between token batches. On abort (cancel's error or
// ErrTreeDepthExceeded) the partial tree is abandoned with the arena.
func (p *Parser) parse(pre *Preprocessed, opts Options, cancel func() error) (*Result, error) {
	p.reset(pre.Input, opts)
	p.tb.cancel = cancel
	root := p.tb.doc
	if opts.Context != "" {
		root = p.tb.setupFragment(opts.Context)
	}
	p.tb.run()
	if err := p.tb.abort; err != nil {
		return nil, err
	}
	return assemble(pre, &p.z, &p.tb, root), nil
}

// ParseReuse is Parse backed by a pooled parser instance: same semantics
// and output, amortized scratch allocations. Use it in loops that parse
// many documents; the Result remains valid after the parser is recycled.
func ParseReuse(b []byte) (*Result, error) {
	return ParseReuseContext(nil, b, Options{})
}
