package framework

import "nadroid/internal/ir"

// Declare adds the framework class skeletons to prog so app classes have
// resolvable supertypes. Framework methods are declared abstract; the
// static analyses treat calls to them as intrinsics (ClassifyPost /
// ClassifyCancel / IsRegistrationCall), and the dynamic interpreter
// implements their semantics natively.
//
// Every program shares one skeleton, built once: nothing may modify a
// framework class or method after Declare.
func Declare(prog *ir.Program) {
	for _, c := range skeleton {
		prog.AddClass(c)
	}
}

// SkeletonSize returns the number of classes Declare adds.
func SkeletonSize() int { return len(skeleton) }

var skeleton = buildSkeleton()

// buildSkeleton returns the framework classes in declaration order.
func buildSkeleton() []*ir.Class {
	classes := []*ir.Class{ir.NewClass(Object, "")}

	iface := func(name string, methods ...string) *ir.Class {
		c := ir.NewClass(name, Object)
		c.IsIface = true
		for _, m := range methods {
			am := ir.NewMethod(name, m, 1)
			am.Abstract = true
			c.AddMethod(am)
		}
		classes = append(classes, c)
		return c
	}
	class := func(name, super string, methods ...string) *ir.Class {
		c := ir.NewClass(name, super)
		for _, m := range methods {
			am := ir.NewMethod(name, m, methodArity(m))
			am.Abstract = true
			c.AddMethod(am)
		}
		classes = append(classes, c)
		return c
	}

	iface(Runnable, RunMethod)
	iface(ServiceConnection, ServiceConnCallbacks...)
	iface(OnClickListener, "onClick")
	iface(OnLongClickListener, "onLongClick")
	iface(OnTouchListener, "onTouch")
	iface(LocationListener, "onLocationChanged", "onProviderDisabled", "onProviderEnabled")
	iface(SensorListener, "onSensorChanged", "onAccuracyChanged")
	iface(SharedPrefsListener, "onSharedPreferenceChanged")
	iface(ExecutorService, "execute", "submit")
	iface(IBinder, "transact")

	class(Exception, Object)
	class(NullPointerExc, Exception)
	class(Intent, Object)
	class(Bundle, Object)
	class(Message, Object)
	class(Looper, Object)
	class(Binder, Object, "transact").Interfaces = []string{IBinder}
	class(Thread, Object, "start", RunMethod, "join", "interrupt").Interfaces = []string{Runnable}

	class(Context, Object,
		"bindService", "unbindService", "registerReceiver", "unregisterReceiver",
		"startService", "stopService", "getSystemService")
	class(Activity, Context,
		"finish", "runOnUiThread", "findViewById", "getIntent", "setContentView")
	class(Service, Context, "stopSelf")
	class(BroadcastReceiver, Object)
	class(Handler, Object,
		"post", "postDelayed", "sendMessage", "sendMessageDelayed",
		"sendEmptyMessage", "removeCallbacksAndMessages", "removeCallbacks",
		"obtainMessage")
	class(AsyncTask, Object,
		"execute", "cancel", "publishProgress", "isCancelled")
	class(View, Object,
		"post", "setOnClickListener", "setOnLongClickListener",
		"setOnTouchListener", "setVisibility", "setEnabled")
	class(LocationManager, Object, "requestLocationUpdates", "removeUpdates")
	class(SensorManager, Object, "registerListener", "unregisterListener")
	class(Timer, Object, "schedule", "cancel")
	class(TimerTask, Object, RunMethod).Interfaces = []string{Runnable}
	class(Fragment, Object)
	class(ServiceManager, Object, "addService")
	class(PowerManager, Object, "newWakeLock")
	class(WakeLock, Object, "acquire", "release", "isHeld")
	return classes
}

// methodArity gives the parameter count used for abstract framework
// method declarations; it only matters for builder bookkeeping.
func methodArity(m string) int {
	switch m {
	case "bindService", "registerReceiver", "requestLocationUpdates", "registerListener", "schedule", "postDelayed", "sendMessageDelayed":
		return 2
	case "finish", "stopSelf", "removeCallbacksAndMessages", "obtainMessage", "getIntent", "isCancelled":
		return 0
	default:
		return 1
	}
}
