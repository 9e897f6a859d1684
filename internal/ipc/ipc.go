// Package ipc implements AIR's low-level interpartition communication
// mechanisms (paper Sect. 2.1): sampling and queuing channels configured at
// system integration time, to which partitions attach through APEX ports "in
// a way which is agnostic of whether the partitions are local or remote to
// one another".
//
// For partitions on the same processing platform, message transfer models
// the PMK's memory-to-memory copy (channel buffers live in PMK space; each
// side's buffers are copied in and out without violating spatial
// separation). For physically separated partitions, a channel carries a
// non-zero Latency, modelling transmission through a communication
// infrastructure (simulated bus): messages become visible to the destination
// only Latency ticks after being sent.
package ipc

import (
	"errors"
	"fmt"
	"sort"

	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// IPC errors.
var (
	ErrMessageTooLarge  = errors.New("ipc: message exceeds configured maximum")
	ErrEmptyMessage     = errors.New("ipc: empty message")
	ErrQueueFull        = errors.New("ipc: queuing channel full")
	ErrQueueEmpty       = errors.New("ipc: queuing channel empty")
	ErrNoMessage        = errors.New("ipc: no message ever written")
	ErrDuplicateChannel = errors.New("ipc: duplicate channel name")
	ErrNotSource        = errors.New("ipc: partition is not the channel source")
	ErrNotDestination   = errors.New("ipc: partition is not a channel destination")
	ErrUnknownChannel   = errors.New("ipc: unknown channel")
)

// PortRef names one end of a channel: a port name within a partition.
type PortRef struct {
	Partition model.PartitionName
	Port      string
}

// String renders the port reference.
func (r PortRef) String() string { return string(r.Partition) + "." + r.Port }

// message is a stamped payload.
type message struct {
	data []byte
	sent tick.Ticks
}

// SamplingConfig configures a sampling channel: a single-slot channel where
// the source overwrites and each destination reads the most recent message,
// with a validity (refresh) period.
type SamplingConfig struct {
	Name         string
	MaxMessage   int
	Refresh      tick.Ticks // validity period for read messages
	Latency      tick.Ticks // 0 = local memory-to-memory copy
	Source       PortRef
	Destinations []PortRef
}

// SamplingChannel is the runtime state of a sampling channel.
type SamplingChannel struct {
	cfg    SamplingConfig
	slot   message
	filled bool
	writes uint64
	obs    obs.Emitter
}

// Config returns the integration-time configuration.
func (c *SamplingChannel) Config() SamplingConfig { return c.cfg }

// Write replaces the channel's message (source side). The copy models the
// PMK memory-to-memory transfer: the payload is copied into the channel's
// PMK-space slot.
func (c *SamplingChannel) Write(from model.PartitionName, data []byte, now tick.Ticks) error {
	if from != c.cfg.Source.Partition {
		return fmt.Errorf("%w: %s writing %s", ErrNotSource, from, c.cfg.Name)
	}
	if len(data) == 0 {
		return ErrEmptyMessage
	}
	if len(data) > c.cfg.MaxMessage {
		return fmt.Errorf("%w: %d > %d on %s", ErrMessageTooLarge, len(data),
			c.cfg.MaxMessage, c.cfg.Name)
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	c.slot = message{data: buf, sent: now}
	c.filled = true
	c.writes++
	c.obs.Emit(obs.Event{Time: now, Kind: obs.KindPortSend,
		Partition: from, Process: c.cfg.Source.Port, Detail: c.cfg.Name})
	return nil
}

// ReadResult is the outcome of a sampling read.
type ReadResult struct {
	Data []byte
	// Valid reports whether the message age is within the refresh period
	// (the ARINC 653 validity flag).
	Valid bool
	// Age is now minus the send instant, after transmission latency.
	Age tick.Ticks
}

// Read returns a copy of the latest message visible to the destination at
// time now (destination side). A message in flight on a remote channel
// (sent less than Latency ago) is not yet visible; if no earlier message
// exists the read fails with ErrNoMessage.
func (c *SamplingChannel) Read(to model.PartitionName, now tick.Ticks) (ReadResult, error) {
	if !c.isDestination(to) {
		return ReadResult{}, fmt.Errorf("%w: %s reading %s", ErrNotDestination, to, c.cfg.Name)
	}
	if !c.filled || now < c.slot.sent+c.cfg.Latency {
		return ReadResult{}, fmt.Errorf("%w: %s", ErrNoMessage, c.cfg.Name)
	}
	out := make([]byte, len(c.slot.data))
	copy(out, c.slot.data)
	age := now - c.slot.sent - c.cfg.Latency
	c.obs.Emit(obs.Event{Time: now, Kind: obs.KindPortReceive,
		Partition: to, Process: c.destPort(to), Detail: c.cfg.Name})
	return ReadResult{
		Data:  out,
		Valid: c.cfg.Refresh <= 0 || age <= c.cfg.Refresh,
		Age:   age,
	}, nil
}

// destPort resolves the destination partition's port name on this channel.
func (c *SamplingChannel) destPort(p model.PartitionName) string {
	for _, d := range c.cfg.Destinations {
		if d.Partition == p {
			return d.Port
		}
	}
	return ""
}

// Writes returns the number of successful writes (diagnostics).
func (c *SamplingChannel) Writes() uint64 { return c.writes }

func (c *SamplingChannel) isDestination(p model.PartitionName) bool {
	for _, d := range c.cfg.Destinations {
		if d.Partition == p {
			return true
		}
	}
	return false
}

// QueuingConfig configures a queuing channel: a bounded FIFO between one
// source and one destination.
type QueuingConfig struct {
	Name        string
	MaxMessage  int
	Depth       int        // maximum queued messages
	Latency     tick.Ticks // 0 = local
	Source      PortRef
	Destination PortRef
}

// QueuingChannel is the runtime state of a queuing channel.
type QueuingChannel struct {
	cfg   QueuingConfig
	queue []message
	sends uint64
	drops uint64
	obs   obs.Emitter
}

// Config returns the integration-time configuration.
func (c *QueuingChannel) Config() QueuingConfig { return c.cfg }

// Send enqueues a message (source side), failing with ErrQueueFull when the
// configured depth is reached — the APEX layer translates that into blocking
// or a NOT_AVAILABLE return depending on the caller's timeout.
func (c *QueuingChannel) Send(from model.PartitionName, data []byte, now tick.Ticks) error {
	if from != c.cfg.Source.Partition {
		return fmt.Errorf("%w: %s sending on %s", ErrNotSource, from, c.cfg.Name)
	}
	if len(data) == 0 {
		return ErrEmptyMessage
	}
	if len(data) > c.cfg.MaxMessage {
		return fmt.Errorf("%w: %d > %d on %s", ErrMessageTooLarge, len(data),
			c.cfg.MaxMessage, c.cfg.Name)
	}
	if len(c.queue) >= c.cfg.Depth {
		c.drops++
		return fmt.Errorf("%w: %s", ErrQueueFull, c.cfg.Name)
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	c.queue = append(c.queue, message{data: buf, sent: now})
	c.sends++
	c.obs.Emit(obs.Event{Time: now, Kind: obs.KindPortSend,
		Partition: from, Process: c.cfg.Source.Port, Detail: c.cfg.Name})
	return nil
}

// Receive dequeues the oldest visible message (destination side). On a
// remote channel a message still in flight is not yet receivable. An empty
// queue, or one whose head is still in flight, returns the bare
// ErrQueueEmpty, so a receiver that polls every frame allocates nothing.
func (c *QueuingChannel) Receive(to model.PartitionName, now tick.Ticks) ([]byte, error) {
	if to != c.cfg.Destination.Partition {
		return nil, fmt.Errorf("%w: %s receiving on %s", ErrNotDestination, to, c.cfg.Name)
	}
	if len(c.queue) == 0 || now < c.queue[0].sent+c.cfg.Latency {
		return nil, ErrQueueEmpty
	}
	head := c.queue[0]
	c.queue = c.queue[1:]
	c.obs.Emit(obs.Event{Time: now, Kind: obs.KindPortReceive,
		Partition: to, Process: c.cfg.Destination.Port, Detail: c.cfg.Name})
	return head.data, nil
}

// Len returns the number of queued messages (including in-flight ones).
func (c *QueuingChannel) Len() int { return len(c.queue) }

// Sends returns the number of accepted messages; Drops the number rejected
// on overflow.
func (c *QueuingChannel) Sends() uint64 { return c.sends }

// Drops returns the number of messages rejected due to a full queue.
func (c *QueuingChannel) Drops() uint64 { return c.drops }

// Router holds the module's configured channels and resolves the port
// bindings the APEX layer uses.
type Router struct {
	sampling map[string]*SamplingChannel
	queuing  map[string]*QueuingChannel
	obs      obs.Emitter
}

// AttachObs publishes successful port transfers (KindPortSend on writes and
// sends, KindPortReceive on reads and receives) on the module's
// observability spine. It applies to the already-installed channels and to
// channels added afterwards. The emitted fields are the channel's
// integration-time strings, so publication never allocates.
func (r *Router) AttachObs(em obs.Emitter) {
	r.obs = em
	for _, ch := range r.sampling { //air:allow(maprange): broadcast attach; every channel gets the same emitter
		ch.obs = em
	}
	for _, ch := range r.queuing { //air:allow(maprange): broadcast attach; every channel gets the same emitter
		ch.obs = em
	}
}

// NewRouter creates an empty Router.
func NewRouter() *Router {
	return &Router{
		sampling: make(map[string]*SamplingChannel),
		queuing:  make(map[string]*QueuingChannel),
	}
}

// AddSampling installs a sampling channel.
func (r *Router) AddSampling(cfg SamplingConfig) (*SamplingChannel, error) {
	if err := validateName(cfg.Name, r); err != nil {
		return nil, err
	}
	if cfg.MaxMessage <= 0 {
		return nil, fmt.Errorf("ipc: channel %s: non-positive max message", cfg.Name)
	}
	if len(cfg.Destinations) == 0 {
		return nil, fmt.Errorf("ipc: channel %s: no destinations", cfg.Name)
	}
	ch := &SamplingChannel{cfg: cfg, obs: r.obs}
	r.sampling[cfg.Name] = ch
	return ch, nil
}

// AddQueuing installs a queuing channel.
func (r *Router) AddQueuing(cfg QueuingConfig) (*QueuingChannel, error) {
	if err := validateName(cfg.Name, r); err != nil {
		return nil, err
	}
	if cfg.MaxMessage <= 0 {
		return nil, fmt.Errorf("ipc: channel %s: non-positive max message", cfg.Name)
	}
	if cfg.Depth <= 0 {
		return nil, fmt.Errorf("ipc: channel %s: non-positive depth", cfg.Name)
	}
	ch := &QueuingChannel{cfg: cfg, obs: r.obs}
	r.queuing[cfg.Name] = ch
	return ch, nil
}

func validateName(name string, r *Router) error {
	if name == "" {
		return errors.New("ipc: empty channel name")
	}
	if _, ok := r.sampling[name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateChannel, name)
	}
	if _, ok := r.queuing[name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateChannel, name)
	}
	return nil
}

// Sampling returns the sampling channel with the given name.
func (r *Router) Sampling(name string) (*SamplingChannel, error) {
	ch, ok := r.sampling[name]
	if !ok {
		return nil, fmt.Errorf("%w: sampling %s", ErrUnknownChannel, name)
	}
	return ch, nil
}

// Queuing returns the queuing channel with the given name.
func (r *Router) Queuing(name string) (*QueuingChannel, error) {
	ch, ok := r.queuing[name]
	if !ok {
		return nil, fmt.Errorf("%w: queuing %s", ErrUnknownChannel, name)
	}
	return ch, nil
}

// SamplingByPort resolves the sampling channel bound to a partition's port
// (either end). The bool reports whether the partition is the source.
func (r *Router) SamplingByPort(p model.PartitionName, port string) (*SamplingChannel, bool, error) {
	for _, ch := range r.sampling { //air:allow(maprange): port bindings are unique, so at most one channel matches
		if ch.cfg.Source.Partition == p && ch.cfg.Source.Port == port {
			return ch, true, nil
		}
		for _, d := range ch.cfg.Destinations {
			if d.Partition == p && d.Port == port {
				return ch, false, nil
			}
		}
	}
	return nil, false, fmt.Errorf("%w: no sampling channel at %s.%s", ErrUnknownChannel, p, port)
}

// QueuingByPort resolves the queuing channel bound to a partition's port.
func (r *Router) QueuingByPort(p model.PartitionName, port string) (*QueuingChannel, bool, error) {
	for _, ch := range r.queuing { //air:allow(maprange): port bindings are unique, so at most one channel matches
		if ch.cfg.Source.Partition == p && ch.cfg.Source.Port == port {
			return ch, true, nil
		}
		if ch.cfg.Destination.Partition == p && ch.cfg.Destination.Port == port {
			return ch, false, nil
		}
	}
	return nil, false, fmt.Errorf("%w: no queuing channel at %s.%s", ErrUnknownChannel, p, port)
}

// SamplingChannels returns all sampling channels in name order
// (diagnostics).
func (r *Router) SamplingChannels() []*SamplingChannel {
	names := make([]string, 0, len(r.sampling))
	for name := range r.sampling { //air:allow(maprange): collected into a slice and sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*SamplingChannel, 0, len(names))
	for _, name := range names {
		out = append(out, r.sampling[name])
	}
	return out
}

// QueuingChannels returns all queuing channels in name order (diagnostics).
func (r *Router) QueuingChannels() []*QueuingChannel {
	names := make([]string, 0, len(r.queuing))
	for name := range r.queuing { //air:allow(maprange): collected into a slice and sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*QueuingChannel, 0, len(names))
	for _, name := range names {
		out = append(out, r.queuing[name])
	}
	return out
}
