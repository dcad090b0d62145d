package storage

import "errors"

// Error taxonomy for fault-tolerant storage.  Real parallel file systems
// fail in two distinguishable ways: transiently (a dropped server
// connection, a timeout, a torn write — retrying the operation may
// succeed) and permanently (corrupt media, an invalid argument — retrying
// cannot help).  Fault-injecting and real backends signal the class by
// wrapping one of the two sentinels below; the Resilient wrapper retries
// only transient failures.

// ErrTransient classifies an error as retryable: the same operation may
// succeed if reissued.
var ErrTransient = errors.New("storage: transient error")

// ErrPermanent classifies an error as non-retryable.
var ErrPermanent = errors.New("storage: permanent error")

// IsTransient reports whether err is classified transient.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }
