package mac

import "bulktx/internal/radio"

// funcUpper adapts a test's closures to a MAC's Upper; a nil closure
// ignores its upcall.
type funcUpper struct {
	receive, sent func(radio.Frame)
	dropped       func(radio.Frame, DropReason)
}

func (u *funcUpper) Receive(f radio.Frame) {
	if u.receive != nil {
		u.receive(f)
	}
}

func (u *funcUpper) Sent(f radio.Frame) {
	if u.sent != nil {
		u.sent(f)
	}
}

func (u *funcUpper) Dropped(f radio.Frame, r DropReason) {
	if u.dropped != nil {
		u.dropped(f, r)
	}
}

// funcs returns the MAC's closure adapter, binding one as its Upper on
// first use.
func (m *MAC) funcs() *funcUpper {
	if u, ok := m.upper.(*funcUpper); ok {
		return u
	}
	u := &funcUpper{}
	m.upper = u
	return u
}

// SetOnReceive makes fn take the MAC's deliveries.
func (m *MAC) SetOnReceive(fn func(radio.Frame)) { m.funcs().receive = fn }

// SetOnSent makes fn take the MAC's sent frames.
func (m *MAC) SetOnSent(fn func(radio.Frame)) { m.funcs().sent = fn }

// SetOnDrop makes fn take the frames the MAC abandons.
func (m *MAC) SetOnDrop(fn func(radio.Frame, DropReason)) { m.funcs().dropped = fn }
