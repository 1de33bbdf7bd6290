package radio

// funcUpper adapts a test's closures to a transceiver's Upper and
// Waker; a nil closure ignores its upcall.
type funcUpper struct {
	receive, txDone func(Frame)
	woke            func()
}

func (u *funcUpper) Receive(f Frame) {
	if u.receive != nil {
		u.receive(f)
	}
}

func (u *funcUpper) TxDone(f Frame) {
	if u.txDone != nil {
		u.txDone(f)
	}
}

func (u *funcUpper) Woke() {
	if u.woke != nil {
		u.woke()
	}
}

// funcs returns the transceiver's closure adapter, binding one as its
// Upper and Waker on first use.
func (t *Transceiver) funcs() *funcUpper {
	if u, ok := t.upper.(*funcUpper); ok {
		return u
	}
	u := &funcUpper{}
	t.upper, t.waker = u, u
	return u
}

// SetOnReceive makes fn take the transceiver's clean receptions.
func (t *Transceiver) SetOnReceive(fn func(Frame)) { t.funcs().receive = fn }

// SetOnTxDone makes fn take the transceiver's transmit completions.
func (t *Transceiver) SetOnTxDone(fn func(Frame)) { t.funcs().txDone = fn }

// SetOnWake makes fn run when the transceiver's PowerOn completes.
func (t *Transceiver) SetOnWake(fn func()) { t.funcs().woke = fn }
